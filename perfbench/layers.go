package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	videodist "repro"
	"repro/internal/catalog"
	"repro/internal/headend"
	"repro/streamclient"
)

// The traced run (--trace 1) prints the per-layer metrics. It has two
// parts:
//
//   - the named workload's own stack, driven closed loop in alternating
//     untraced and traced passes: the tracing overhead, the runtime's
//     allocation and GC cost per event, and (for stream workloads) the
//     open-loop generator's lateness;
//   - one section per layer group, each on the workload the layer's
//     metrics are meant to move (see README.md), so every traced run
//     prints the same per-layer metrics whatever --workload names.
//
// Every call the benchmark makes into a layer inside a section is a
// span; the span log and each span name's self time are written under
// .bench_build/trace/.

// sectionLimit bounds every traced section; the watchdog fails the run
// past it.
const sectionLimit = 2 * time.Minute

func runTraced(sp spec, seed int64, budget time.Duration) (result, error) {
	tr := NewTracer()
	out := make(map[string]metric)
	root, endRoot := tr.Root("perfbench.traced", 0)
	attempted := 0
	sections := []struct {
		name string
		run  func(seed int64, tr *Tracer, parent int, out map[string]metric) (int, error)
	}{
		{"workload", func(seed int64, tr *Tracer, parent int, out map[string]metric) (int, error) {
			return workloadSection(sp, seed, budget/2, tr, parent, out)
		}},
		{"ingest", ingestSection},
		{"flash", flashSection},
		{"fleet", fleetSection},
		{"churn", churnSection},
	}
	for _, s := range sections {
		stop := watch("traced section "+s.name, sectionLimit)
		id, end := tr.Root("section."+s.name, root)
		n, err := s.run(seed, tr, id, out)
		end()
		stop()
		if err != nil {
			return result{}, fmt.Errorf("traced section %s: %w", s.name, err)
		}
		attempted += n
	}
	endRoot()

	path, err := tr.Write(filepath.Join(outDir, "trace"), fmt.Sprintf("%s-seed%d.json", sp.name, seed))
	if err != nil {
		return result{}, err
	}
	self, err := json.Marshal(tr.SelfTimes())
	if err != nil {
		return result{}, err
	}
	fmt.Println("# layers", string(self))
	fmt.Println("# trace", path)
	fmt.Println("# caveat", walCaveat)
	return result{Correct: true, Attempted: attempted, Metrics: out}, nil
}

// minTracedPasses is the fewest passes each half of the workload
// section runs.
const minTracedPasses = 4

// workloadSection runs the named workload's stack in alternating
// untraced and traced closed-loop passes for about dur. Alternating
// keeps slow drift in the host out of the overhead ratio.
func workloadSection(sp spec, seed int64, dur time.Duration, tr *Tracer, parent int, out map[string]metric) (attempted int, err error) {
	_, pause0 := runtimeCounters()
	ins, err := sp.instances(seed)
	if err != nil {
		return 0, err
	}
	pass, err := sp.pass(seed, ins)
	if err != nil {
		return 0, err
	}
	walDir := ""
	if sp.wal {
		walDir = walPath(filepath.Join(outDir, "wal"), 0)
	}
	st, err := build(sp, seed, walDir, seams{})
	if err != nil {
		return 0, err
	}
	defer func() { err = errors.Join(err, closeWatched(st)) }()
	var d *loadConn
	if !sp.session {
		if st.conn, err = st.dial(); err != nil {
			return 0, err
		}
		d = newLoadConn(st.conn, nil, parent)
	}
	runPass := func(t *Tracer) (float64, error) {
		var el time.Duration
		var pd passDone
		var err error
		if sp.session {
			pd, el, err = sessionPass(st.nodes[0], pass, new(Recorder), t, parent)
		} else {
			d.tr = t
			pd, el, err = d.closedPass(pass)
		}
		if err == nil && pd.failed > 0 {
			err = fmt.Errorf("%d events failed", pd.failed)
		}
		return float64(len(pass)) / el.Seconds(), err
	}
	if _, err := runPass(nil); err != nil {
		return 0, fmt.Errorf("warm-up: %w", err)
	}
	var plain, traced []float64
	var allocs uint64
	start := time.Now()
	for len(plain) < minTracedPasses || time.Since(start) < dur {
		a0, _ := runtimeCounters()
		rate, err := runPass(nil)
		if err != nil {
			return 0, err
		}
		a1, _ := runtimeCounters()
		allocs += a1 - a0
		plain = append(plain, rate)
		if rate, err = runPass(tr); err != nil {
			return 0, err
		}
		traced = append(traced, rate)
	}
	if err := st.gate("traced passes"); err != nil {
		return 0, err
	}
	out["trace.events_per_s_ratio"] = metric{median(traced) / median(plain), "ratio"}
	out["runtime.allocs_per_event"] = metric{float64(allocs) / float64(len(plain)*len(pass)), "allocs/event"}
	attempted = (2*len(plain) + 1) * len(pass)
	if d != nil {
		d.tr = nil
		var lag Recorder
		if _, _, err := d.openPasses(pass, 1, sp.rate, ackWindow, &lag); err != nil {
			return 0, fmt.Errorf("open loop: %w", err)
		}
		out["driver.lag_ms_p99"] = metric{lag.Quantile(0.99) / 1e6, "ms"}
		attempted += len(pass)
		if err := d.finish(); err != nil {
			return 0, err
		}
		st.conn = nil
	}
	// The section's whole GC pause: set-up, warm-up and both halves.
	// The stream hot path allocates so little that its passes alone
	// can run without a single collection.
	_, pause1 := runtimeCounters()
	out["runtime.gc_pause_ms_total"] = metric{(pause1 - pause0).Seconds() * 1e3, "ms"}
	return attempted, nil
}

// runtimeCounters reads the cumulative heap allocation count and GC
// pause time.
func runtimeCounters() (allocs uint64, pause time.Duration) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return s[0].Value.Uint64(), time.Duration(ms.PauseTotalNs)
}

// specPass builds a named workload's instances and pass.
func specPass(name string, seed int64) (spec, []*videodist.Instance, []streamclient.Event, error) {
	sp, err := specByName(name)
	if err != nil {
		return spec{}, nil, nil, err
	}
	ins, err := sp.instances(seed)
	if err != nil {
		return spec{}, nil, nil, err
	}
	pass, err := sp.pass(seed, ins)
	return sp, ins, pass, err
}

// ingestSection times ingest's pass at three depths: bare headend
// tenants, the in-process StreamConn, and the HTTP stream. The HTTP run
// minus the StreamConn run is the HTTP hop.
func ingestSection(seed int64, tr *Tracer, parent int, out map[string]metric) (attempted int, err error) {
	sp, ins, pass, err := specPass("ingest", seed)
	if err != nil {
		return 0, err
	}

	// headend: each pass leaves the tenants at rest, so the second,
	// timed pass starts from the same state as the first.
	tenants := make([]*headend.Tenant, len(ins))
	for i, in := range ins {
		pol, err := headend.NewPolicyByName(in, "online")
		if err != nil {
			return 0, err
		}
		if tenants[i], err = headend.NewTenant(in, pol); err != nil {
			return 0, err
		}
	}
	var offers, admitted int
	var applyTime time.Duration
	for p := 0; p < 2; p++ {
		offers, admitted = 0, 0
		start := tr.Begin()
		t0 := time.Now()
		for _, ev := range pass {
			t := tenants[ev.Tenant]
			if ev.Type == "offer" {
				offers++
				if len(t.OfferStream(ev.Stream)) > 0 {
					admitted++
				}
			} else {
				t.DepartStream(ev.Stream)
			}
		}
		applyTime = time.Since(t0)
		tr.End("headend.replay", parent, start)
	}
	out["headend.apply_ns_per_event"] = metric{perEvent(applyTime, len(pass)), "ns"}
	out["headend.admit_ratio"] = metric{float64(admitted) / float64(offers), "ratio"}

	c, err := videodist.NewCluster(clusterTenants(ins), videodist.ClusterOptions{Shards: sp.shards})
	if err != nil {
		return 0, err
	}
	var inproc time.Duration
	for p := 0; p < 2; p++ {
		start := tr.Begin()
		if inproc, err = streamInProcess(c, pass); err != nil {
			c.Close()
			return 0, err
		}
		tr.End("cluster.StreamConn", parent, start)
	}
	if err := c.Close(); err != nil {
		return 0, err
	}
	out["cluster.stream_ns_per_event"] = metric{perEvent(inproc, len(pass)), "ns"}

	st, err := build(sp, seed, "", seams{})
	if err != nil {
		return 0, err
	}
	defer func() { err = errors.Join(err, closeWatched(st)) }()
	if st.conn, err = st.dial(); err != nil {
		return 0, err
	}
	d := newLoadConn(st.conn, tr, parent)
	if _, _, err := d.closedPass(pass); err != nil {
		return 0, err
	}
	d.sendTime, d.recvTime = 0, 0
	if _, _, err := d.closedPass(pass); err != nil {
		return 0, err
	}
	out["streamclient.send_ns_per_event"] = metric{perEvent(d.sendTime, len(pass)), "ns"}
	out["streamclient.recv_ns_per_event"] = metric{perEvent(d.recvTime, len(pass)), "ns"}
	// The hop compares two untraced passes: the in-process one records
	// no per-event spans, so neither may this one.
	d.tr = nil
	_, httpTime, err := d.closedPass(pass)
	if err != nil {
		return 0, err
	}
	out["httpserve.hop_ns_per_event"] = metric{perEvent(httpTime-inproc, len(pass)), "ns"}
	attempted = 7 * len(pass)
	if _, ok := out["driver.lag_ms_p99"]; !ok {
		// The named workload has no open loop (churn-resolve): report
		// the generator's lateness on ingest's.
		var lag Recorder
		if _, _, err := d.openPasses(pass, 1, sp.rate, ackWindow, &lag); err != nil {
			return 0, err
		}
		out["driver.lag_ms_p99"] = metric{lag.Quantile(0.99) / 1e6, "ms"}
		attempted += len(pass)
	}
	if err := d.finish(); err != nil {
		return 0, err
	}
	st.conn = nil
	return attempted, st.gate("ingest section")
}

func perEvent(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

func clusterTenants(ins []*videodist.Instance) []videodist.ClusterTenant {
	out := make([]videodist.ClusterTenant, len(ins))
	for i, in := range ins {
		out[i] = videodist.ClusterTenant{Instance: in}
	}
	return out
}

// clusterEvent maps a wire event onto the cluster's event.
func clusterEvent(ev streamclient.Event) (videodist.ClusterEvent, error) {
	out := videodist.ClusterEvent{Tenant: ev.Tenant, Stream: ev.Stream, User: ev.User, Install: ev.Install}
	switch ev.Type {
	case "offer":
		out.Type = videodist.ClusterStreamArrival
	case "depart":
		out.Type = videodist.ClusterStreamDeparture
	case "catalog-offer":
		out.Type, out.CatalogID = videodist.ClusterStreamArrival, videodist.CatalogID(ev.CatalogID)
	case "catalog-depart":
		out.Type, out.CatalogID = videodist.ClusterStreamDeparture, videodist.CatalogID(ev.CatalogID)
	case "leave":
		out.Type = videodist.ClusterUserLeave
	case "join":
		out.Type = videodist.ClusterUserJoin
	case "resolve":
		out.Type = videodist.ClusterResolve
	default:
		return out, fmt.Errorf("unknown event type %q", ev.Type)
	}
	return out, nil
}

// streamInProcess pipelines the pass through an in-process StreamConn
// (one submitter, one receiver) and returns the time from the first
// submit to the last result.
func streamInProcess(c *videodist.Cluster, pass []streamclient.Event) (time.Duration, error) {
	evs := make([]videodist.ClusterEvent, len(pass))
	for i, ev := range pass {
		var err error
		if evs[i], err = clusterEvent(ev); err != nil {
			return 0, err
		}
	}
	sc, err := c.OpenStream(videodist.StreamOptions{})
	if err != nil {
		return 0, err
	}
	defer sc.Close()
	ctx := context.Background()
	recvErr := make(chan error, 1)
	var last time.Time
	go func() {
		for i := range evs {
			res, err := sc.Recv(ctx)
			if err == nil && res.Seq != i {
				err = fmt.Errorf("stream result %d arrived as %d", i, res.Seq)
			}
			if err == nil {
				err = res.Err
			}
			if err != nil {
				recvErr <- err
				return
			}
		}
		last = time.Now()
		recvErr <- nil
	}()
	start := time.Now()
	var sendErr error
	for i := range evs {
		if sendErr = sc.Submit(ctx, evs[i]); sendErr != nil {
			break
		}
	}
	if sendErr != nil {
		sc.Close()
		return 0, errors.Join(sendErr, <-recvErr)
	}
	if err := <-recvErr; err != nil {
		return 0, err
	}
	sc.CloseSend()
	if _, err := sc.Recv(ctx); err != io.EOF {
		return 0, fmt.Errorf("stream did not end after its last result: %v", err)
	}
	return last.Sub(start), nil
}

// flashSection measures the WAL under flash-durable's pass through a
// counting WALOptions.FS, then replays the pass's recorded catalog
// operations directly on a fresh registry.
func flashSection(seed int64, tr *Tracer, parent int, out map[string]metric) (attempted int, err error) {
	sp, ins, pass, err := specPass("flash-durable", seed)
	if err != nil {
		return 0, err
	}
	fs := &walFS{tr: tr, parent: parent}
	st, err := build(sp, seed, walPath(filepath.Join(outDir, "wal"), 1), seams{walFS: fs})
	if err != nil {
		return 0, err
	}
	defer func() { err = errors.Join(err, closeWatched(st)) }()
	if st.conn, err = st.dial(); err != nil {
		return 0, err
	}
	d := newLoadConn(st.conn, tr, parent)
	if _, _, err := d.closedPass(pass); err != nil {
		return 0, err
	}
	b0, s0 := fs.counts()
	fs.mu.Lock()
	fs.sync = Recorder{}
	fs.mu.Unlock()
	if _, _, err := d.closedPass(pass); err != nil {
		return 0, err
	}
	b1, s1 := fs.counts()
	if err := d.finish(); err != nil {
		return 0, err
	}
	st.conn = nil
	if err := st.gate("flash section"); err != nil {
		return 0, err
	}
	n := float64(len(pass))
	syncs := float64(s1 - s0)
	fs.mu.Lock()
	p50, p99 := fs.sync.Quantile(0.5), fs.sync.Quantile(0.99)
	fs.mu.Unlock()
	out["wal.datasyncs_per_kevent"] = metric{syncs * 1000 / n, "count"}
	out["wal.events_per_sync"] = metric{n / syncs, "events"}
	out["wal.datasync_us_p50"] = metric{p50 / 1e3, "us"}
	out["wal.datasync_us_p99"] = metric{p99 / 1e3, "us"}
	out["wal.bytes_per_event"] = metric{float64(b1-b0) / n, "B"}

	ops, err := recordCatalogOps(sp, ins, pass)
	if err != nil {
		return 0, err
	}
	if err := replayCatalogOps(sp, ops, tr, parent, out); err != nil {
		return 0, err
	}
	return 3 * len(pass), nil
}

// recordCatalogOps runs the pass through an in-process StreamConn whose
// catalog registry records every acquisition and settlement.
func recordCatalogOps(sp spec, ins []*videodist.Instance, pass []streamclient.Event) ([]catOp, error) {
	bindings := videodist.IdentityCatalogBindings(sp.tenants, sp.channels, channelID)
	reg, err := catalog.NewRegistry(bindings, sharedOrigin)
	if err != nil {
		return nil, err
	}
	rec := &recordingCatalog{Registry: reg}
	c, err := videodist.NewCluster(clusterTenants(ins), videodist.ClusterOptions{
		Shards:  sp.shards,
		Catalog: &videodist.CatalogOptions{Streams: bindings, Remote: rec},
	})
	if err != nil {
		reg.Close()
		return nil, err
	}
	_, err = streamInProcess(c, pass)
	return rec.recorded(), errors.Join(err, c.Close())
}

// replayCatalogOps applies the recorded operations to a fresh registry,
// timing each call and sampling the registry snapshot between calls.
func replayCatalogOps(sp spec, ops []catOp, tr *Tracer, parent int, out map[string]metric) error {
	reg, err := catalog.NewRegistry(videodist.IdentityCatalogBindings(sp.tenants, sp.channels, channelID), sharedOrigin)
	if err != nil {
		return err
	}
	defer reg.Close()
	var acqTime, settleTime time.Duration
	var acqN, settleN, peak int
	var tickets []catalog.Ticket
	var results []catalog.SettleResult
	for i, op := range ops {
		start := tr.Begin()
		t0 := time.Now()
		if op.acquire {
			tickets = append(tickets[:0], make([]catalog.Ticket, len(op.ids))...)
			err = reg.AcquireBatch(op.tenant, op.ids, tickets)
			acqTime += time.Since(t0)
			acqN += len(op.ids)
			tr.End("catalog.AcquireBatch", parent, start)
		} else {
			results = append(results[:0], make([]catalog.SettleResult, len(op.settles))...)
			err = reg.SettleBatch(op.settles, results)
			settleTime += time.Since(t0)
			settleN += len(op.settles)
			tr.End("catalog.SettleBatch", parent, start)
		}
		if err != nil {
			return fmt.Errorf("catalog replay op %d: %w", i, err)
		}
		if i%16 == 0 {
			for _, e := range reg.Snapshot().Entries {
				peak = max(peak, e.Refs)
			}
		}
	}
	snap := reg.Snapshot()
	if err := drained(snap); err != nil {
		return fmt.Errorf("catalog replay: %w", err)
	}
	out["catalog.acquire_ns_per_op"] = metric{perEvent(acqTime, acqN), "ns"}
	out["catalog.settle_ns_per_op"] = metric{perEvent(settleTime, settleN), "ns"}
	out["catalog.refs_peak"] = metric{float64(peak), "count"}
	out["catalog.evictions"] = metric{float64(snap.Evictions), "count"}
	out["catalog.origin_savings"] = metric{snap.OriginSavings, "cost"}
	return nil
}

// hopEvents is how many of the fleet pass's events are timed one at a
// time through the router and then directly at their nodes.
const hopEvents = 1500

// fleetSection measures the catalog wire and the router's upstream
// connections over one pass, then times single events through the
// router against the same events sent straight to their nodes.
func fleetSection(seed int64, tr *Tracer, parent int, out map[string]metric) (attempted int, err error) {
	sp := fleetSpec
	ins, err := sp.instances(seed)
	if err != nil {
		return 0, err
	}
	pass, err := sp.pass(seed, ins)
	if err != nil {
		return 0, err
	}
	var cats []*timedCatalog
	dialer := &countingDialer{tr: tr, parent: parent}
	st, err := build(sp, seed, "", seams{
		catalog: func(s catalog.Service) catalog.Service {
			tc := &timedCatalog{Service: s, tr: tr, parent: parent}
			cats = append(cats, tc)
			return tc
		},
		dial: dialer.dial,
	})
	if err != nil {
		return 0, err
	}
	defer func() { err = errors.Join(err, closeWatched(st)) }()
	if st.conn, err = st.dial(); err != nil {
		return 0, err
	}
	d := newLoadConn(st.conn, tr, parent)
	if _, _, err := d.closedPass(pass); err != nil {
		return 0, err
	}
	var ops0 int64
	for _, tc := range cats {
		tc.mu.Lock()
		ops0 += tc.ops
		tc.rtt = Recorder{}
		tc.mu.Unlock()
	}
	w0, b0 := dialer.counts()
	if _, _, err := d.closedPass(pass); err != nil {
		return 0, err
	}
	w1, b1 := dialer.counts()
	var ops int64
	var rtt Recorder
	for _, tc := range cats {
		n, r := tc.stats()
		ops += n
		rtt.Merge(r)
	}
	n := float64(len(pass))
	out["catalog-remote.rtt_us_p50"] = metric{rtt.Quantile(0.5) / 1e3, "us"}
	out["catalog-remote.rtt_us_p99"] = metric{rtt.Quantile(0.99) / 1e3, "us"}
	out["catalog-remote.ops_per_event"] = metric{float64(ops-ops0) / n, "ops/event"}
	out["fleet.upstream_writes_per_event"] = metric{float64(w1-w0) / n, "writes/event"}
	out["fleet.upstream_bytes_per_event"] = metric{float64(b1-b0) / n, "B/event"}

	// Router path: one event in flight, then the rest of the pass to
	// drain the fleet.
	k := min(hopEvents, len(pass))
	d.tr = nil
	var viaRouter, direct Recorder
	for i := 0; i < k; i++ {
		_, el, err := d.closedPass(pass[i : i+1])
		if err != nil {
			return 0, err
		}
		viaRouter.Record(el)
	}
	if _, _, err := d.closedPass(pass[k:]); err != nil {
		return 0, err
	}
	if err := d.finish(); err != nil {
		return 0, err
	}
	st.conn = nil
	if err := st.gate("fleet router pass"); err != nil {
		return 0, err
	}

	// Direct path: the same events, each to its owning node.
	plan := st.plan()
	nodes := make([]*loadConn, len(st.nodeURLs))
	for i, u := range st.nodeURLs {
		conn, err := streamclient.Dial(u)
		if err != nil {
			return 0, err
		}
		nodes[i] = newLoadConn(conn, nil, 0)
	}
	finishAll := func() error {
		var errs []error
		for _, nd := range nodes {
			errs = append(errs, nd.finish())
		}
		return errors.Join(errs...)
	}
	rest := make([][]streamclient.Event, len(nodes))
	for i, ev := range pass {
		node := plan.NodeOfTenant(ev.Tenant)
		if i >= k {
			rest[node] = append(rest[node], ev)
			continue
		}
		_, el, err := nodes[node].closedPass(pass[i : i+1])
		if err != nil {
			return 0, errors.Join(err, finishAll())
		}
		direct.Record(el)
	}
	for i, evs := range rest {
		if _, _, err := nodes[i].closedPass(evs); err != nil {
			return 0, errors.Join(err, finishAll())
		}
	}
	if err := finishAll(); err != nil {
		return 0, err
	}
	if err := st.gate("fleet direct pass"); err != nil {
		return 0, err
	}
	out["fleet.hop_us_p50"] = metric{(viaRouter.Quantile(0.5) - direct.Quantile(0.5)) / 1e3, "us"}
	out["fleet.hop_us_p99"] = metric{(viaRouter.Quantile(0.99) - direct.Quantile(0.99)) / 1e3, "us"}
	return 4 * len(pass), nil
}

// churnSection times churn-resolve's session calls, snapshots and
// installing resolves by kind, and the offline pipeline alone on the
// same instances.
func churnSection(seed int64, tr *Tracer, parent int, out map[string]metric) (attempted int, err error) {
	sp, ins, pass, err := specPass("churn-resolve", seed)
	if err != nil {
		return 0, err
	}
	st, err := build(sp, seed, "", seams{})
	if err != nil {
		return 0, err
	}
	defer func() { err = errors.Join(err, closeWatched(st)) }()
	ctx := context.Background()
	var session, snapshot, resolve Recorder
	for _, ev := range pass {
		start := tr.Begin()
		t0 := time.Now()
		if _, err := apply(ctx, st.nodes[0], ev); err != nil {
			return 0, err
		}
		d := time.Since(t0)
		tr.End(spanName(ev.Type), parent, start)
		switch ev.Type {
		case "resolve":
			resolve.Record(d)
		case snapshotType:
			snapshot.Record(d)
		default:
			session.Record(d)
		}
	}
	var solve Recorder
	for _, in := range ins {
		start := tr.Begin()
		t0 := time.Now()
		if _, _, err := videodist.Solve(in, videodist.Options{}); err != nil {
			return 0, err
		}
		solve.Record(time.Since(t0))
		tr.End("core.Solve", parent, start)
	}
	out["cluster.session_us_p50"] = metric{session.Quantile(0.5) / 1e3, "us"}
	out["cluster.session_us_p99"] = metric{session.Quantile(0.99) / 1e3, "us"}
	out["cluster.snapshot_ms_p50"] = metric{snapshot.Quantile(0.5) / 1e6, "ms"}
	out["core.resolve_ms_p50"] = metric{resolve.Quantile(0.5) / 1e6, "ms"}
	out["core.resolve_ms_p99"] = metric{resolve.Quantile(0.99) / 1e6, "ms"}
	out["core.solve_ms_p50"] = metric{solve.Quantile(0.5) / 1e6, "ms"}
	return len(pass), st.gate("churn section")
}
