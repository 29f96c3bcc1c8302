// Package benchkit holds the serving-path benchmark bodies in plain
// functions so they run both as `go test -bench` benchmarks (the root
// bench_test.go and internal/headend wrap them) and programmatically via
// testing.Benchmark from `mmdbench -json`, which snapshots ns/op and
// allocs/op into BENCH_serving.json — the machine-readable perf baseline
// future PRs diff against.
package benchkit

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"testing"

	videodist "repro"
	"repro/internal/catalog"
	"repro/internal/cluster"
	"repro/internal/generator"
	"repro/internal/headend"
	"repro/internal/httpserve"
	"repro/internal/loaddrive"
	"repro/internal/mmd"
	"repro/streamclient"
)

// admissionInstance is the CableTV-sized workload the guarded-admission
// benchmarks sweep: 3 server budgets, 2 capacities per gateway, Zipf
// popularity, contended egress.
func admissionInstance(b *testing.B) *mmd.Instance {
	b.Helper()
	in, err := generator.CableTV{
		Channels: 120, Gateways: 40, Seed: 300, EgressFraction: 0.25,
	}.Generate()
	if err != nil {
		b.Fatal(err)
	}
	return in
}

// admissionCandidates precomputes the per-stream candidate lists (users
// with positive utility, increasing index) shared by both guard paths —
// the same inversion ThresholdPolicy walks per arrival.
func admissionCandidates(in *mmd.Instance) [][]int {
	return in.InterestedUsers()
}

// GuardedAdmissionRescan sweeps every (stream, candidate) admission
// through the retained reference guard — trial Add + full
// Assignment.CheckFeasible rescan per candidate, the pre-ledger
// serving-path behavior — then tears the lineup back down, so each op
// is one admit-everything/depart-everything cycle on warm state and the
// reported allocs are the guard's own.
func GuardedAdmissionRescan(b *testing.B) {
	in := admissionInstance(b)
	cand := admissionCandidates(in)
	assn := mmd.NewAssignment(in.NumUsers())
	var admitted [][2]int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		admitted = admitted[:0]
		for s := range cand {
			for _, u := range cand[s] {
				assn.Add(u, s)
				if assn.CheckFeasible(in) != nil {
					assn.Remove(u, s)
					continue
				}
				admitted = append(admitted, [2]int{u, s})
			}
		}
		if len(admitted) == 0 {
			b.Fatal("nothing admitted")
		}
		for _, p := range admitted {
			assn.Remove(p[0], p[1])
		}
	}
}

// GuardedAdmissionLedger runs the identical admit/depart cycle through
// the incremental LoadLedger delta query.
func GuardedAdmissionLedger(b *testing.B) {
	in := admissionInstance(b)
	cand := admissionCandidates(in)
	assn := mmd.NewAssignment(in.NumUsers())
	ledger := mmd.NewLoadLedger(in)
	var admitted [][2]int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		admitted = admitted[:0]
		for s := range cand {
			for _, u := range cand[s] {
				if !ledger.FitsDelta(u, s) {
					continue
				}
				ledger.Add(u, s)
				assn.Add(u, s)
				admitted = append(admitted, [2]int{u, s})
			}
		}
		if len(admitted) == 0 {
			b.Fatal("nothing admitted")
		}
		for _, p := range admitted {
			ledger.Remove(p[0], p[1])
			assn.Remove(p[0], p[1])
		}
	}
}

// CatalogAdmissionLedger sweeps the identical admit/depart cycle as
// GuardedAdmissionLedger through the *scaled* guard path — the
// admission fast path of the fleet catalog (serving API v3):
// FitsDeltaScaled prices the server-cost delta at the shared-origin
// replication fraction, AddScaled records the charge scale for the
// eventual refund. scale 1 is the Isolated cost model (bit-identical
// decisions to the unscaled path); scale 0.25 is the SharedOrigin
// discount, which admits more pairs per sweep on the contended
// instance. Both must stay allocation-free — the catalog's registry
// round trip happens outside this path, once per fleet admission, not
// per candidate.
func CatalogAdmissionLedger(b *testing.B, scale float64) {
	in := admissionInstance(b)
	cand := admissionCandidates(in)
	assn := mmd.NewAssignment(in.NumUsers())
	ledger := mmd.NewLoadLedger(in)
	var admitted [][2]int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		admitted = admitted[:0]
		for s := range cand {
			for _, u := range cand[s] {
				if !ledger.FitsDeltaScaled(u, s, scale) {
					continue
				}
				ledger.AddScaled(u, s, scale)
				assn.Add(u, s)
				admitted = append(admitted, [2]int{u, s})
			}
		}
		if len(admitted) == 0 {
			b.Fatal("nothing admitted")
		}
		for _, p := range admitted {
			ledger.Remove(p[0], p[1])
			assn.Remove(p[0], p[1])
		}
	}
}

// OnlinePolicySweep offers the full catalog to the guarded Section 5
// online policy end to end (allocator + guard); ledger selects the
// incremental guard, rescan the retained reference guard. The two runs
// admit bit-identically (see the differential tests), so the delta is
// pure guard cost.
func OnlinePolicySweep(b *testing.B, ledger bool) {
	in := admissionInstance(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		var pol *headend.OnlinePolicy
		var err error
		if ledger {
			pol, err = headend.NewOnlinePolicy(in, true)
		} else {
			pol, err = headend.NewRescanOnlinePolicy(in)
		}
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for s := 0; s < in.NumStreams(); s++ {
			pol.OnStreamArrival(s)
		}
	}
}

// clusterTenants builds the 8-tenant fleet shared by the cluster
// benchmarks.
func clusterTenants(b *testing.B) []*videodist.Instance {
	b.Helper()
	instances, err := clusterInstances()
	if err != nil {
		b.Fatal(err)
	}
	return instances
}

// clusterInstances is the non-testing form of clusterTenants, shared
// with the saturation harness (which runs outside testing.Benchmark).
func clusterInstances() ([]*videodist.Instance, error) {
	instances := make([]*videodist.Instance, 8)
	for i := range instances {
		in, err := generator.CableTV{
			Channels: 40, Gateways: 10, Seed: 200 + int64(i), EgressFraction: 0.25,
		}.Generate()
		if err != nil {
			return nil, err
		}
		instances[i] = in
	}
	return instances, nil
}

// ClusterWorkload drives one full workload (arrivals, departures,
// gateway churn) over 8 tenants on the given shard count and reports
// events/op — the body of BenchmarkClusterSerial/Sharded.
func ClusterWorkload(b *testing.B, shards int) {
	instances := clusterTenants(b)
	events := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tenants := make([]videodist.ClusterTenant, len(instances))
		for j, in := range instances {
			tenants[j] = videodist.ClusterTenant{Instance: in}
		}
		c, err := videodist.NewCluster(tenants, videodist.ClusterOptions{
			Shards: shards,
		})
		if err != nil {
			b.Fatal(err)
		}
		fs, total, err := c.RunWorkload(videodist.ClusterWorkload{
			Seed: 200, Rounds: 2, DepartEvery: 3, ChurnEvery: 8,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Close(); err != nil {
			b.Fatal(err)
		}
		if !fs.AllFeasible {
			b.Fatal("fleet infeasible")
		}
		events = total
	}
	b.ReportMetric(float64(events), "events/op")
}

// ClusterAck drives the same 8-tenant workload through the serving API
// v2 session methods — every event is a window of one and the caller
// blocks for its typed result — the body of BenchmarkClusterAck.
// The fleet is built (and torn down) outside the timer, exactly like
// StreamIngest: a production cluster is constructed once and serves
// events for its lifetime, so ns/op and allocs/op measure the serving
// hot path alone — the regression bar the AllocsPerRun tests pin.
func ClusterAck(b *testing.B) {
	instances := clusterTenants(b)
	ctx := context.Background()
	events := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tenants := make([]videodist.ClusterTenant, len(instances))
		for j, in := range instances {
			tenants[j] = videodist.ClusterTenant{Instance: in}
		}
		c, err := videodist.NewCluster(tenants, videodist.ClusterOptions{
			Shards: 8,
		})
		if err != nil {
			b.Fatal(err)
		}
		w := videodist.ClusterWorkload{Seed: 200, Rounds: 2, DepartEvery: 3, ChurnEvery: 8}
		schedules := make([][]videodist.ClusterEvent, c.NumTenants())
		for ti := range schedules {
			schedules[ti] = w.Events(c, ti)
		}
		// Collect the construction garbage now so marking debt from the
		// (untimed) fleet build does not spill into the timed section.
		runtime.GC()
		b.StartTimer()

		total := 0
		for ti := 0; ti < c.NumTenants(); ti++ {
			for _, ev := range schedules[ti] {
				switch ev.Type {
				case cluster.EventStreamArrival:
					_, err = c.OfferStream(ctx, ev.Tenant, ev.Stream)
				case cluster.EventStreamDeparture:
					_, err = c.DepartStream(ctx, ev.Tenant, ev.Stream)
				case cluster.EventUserLeave:
					_, err = c.UserLeave(ctx, ev.Tenant, ev.User)
				case cluster.EventUserJoin:
					_, err = c.UserJoin(ctx, ev.Tenant, ev.User)
				case cluster.EventResolve:
					_, err = c.Resolve(ctx, ev.Tenant, videodist.ResolveOptions{})
				}
				if err != nil {
					b.Fatal(err)
				}
				total++
			}
		}

		b.StopTimer()
		fs, err := c.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Close(); err != nil {
			b.Fatal(err)
		}
		if !fs.AllFeasible {
			b.Fatal("fleet infeasible")
		}
		events = total
		b.StartTimer()
	}
	b.ReportMetric(float64(events), "events/op")
}

// ClusterCatalog drives the 8-tenant fleet entirely through the
// catalog surface: every stream is fleet-bound at every tenant, each
// event is an OfferCatalogStream/DepartCatalogStream session call (the
// three-step acquire/admit/commit protocol per admission), and shared
// selects SharedOrigin pricing over Isolated. events/op counts session
// calls — the end-to-end cost of fleet-identified admission.
func ClusterCatalog(b *testing.B, shared bool) {
	instances := clusterTenants(b)
	channels := instances[0].NumStreams()
	bindings := catalog.IdentityBindings(len(instances), channels, func(s int) videodist.CatalogID {
		return videodist.CatalogID(fmt.Sprintf("s-%03d", s))
	})
	var model videodist.CatalogCostModel = videodist.CatalogIsolated{}
	if shared {
		model = videodist.CatalogSharedOrigin{ReplicationFraction: 0.25}
	}
	// Real callers hold stable CatalogIDs; formatting them inside the
	// timed loop would charge ID construction to the catalog path.
	ids := make([]videodist.CatalogID, channels)
	for s := range ids {
		ids[s] = bindings[s].ID
	}
	ctx := context.Background()
	events := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tenants := make([]videodist.ClusterTenant, len(instances))
		for j, in := range instances {
			tenants[j] = videodist.ClusterTenant{Instance: in}
		}
		c, err := videodist.NewCluster(tenants, videodist.ClusterOptions{
			Shards:  8,
			Catalog: &videodist.CatalogOptions{Streams: bindings, CostModel: model},
		})
		if err != nil {
			b.Fatal(err)
		}
		total := 0
		for ti := 0; ti < c.NumTenants(); ti++ {
			for s := 0; s < channels; s++ {
				if _, err := c.OfferCatalogStream(ctx, ti, ids[s]); err != nil {
					b.Fatal(err)
				}
				total++
				if s%3 == 2 {
					if _, err := c.DepartCatalogStream(ctx, ti, ids[s]); err != nil {
						b.Fatal(err)
					}
					total++
				}
			}
		}
		fs, err := c.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Close(); err != nil {
			b.Fatal(err)
		}
		if !fs.AllFeasible {
			b.Fatal("fleet infeasible")
		}
		events = total
	}
	b.ReportMetric(float64(events), "events/op")
}

// streamIngestEvents derives the ~10k-event StreamIngest workload (8
// tenants x 40 channels x 24 rounds of arrivals with departures every
// third) as per-tenant wire-form schedules.
func streamIngestEvents(instances []*videodist.Instance) [][]streamclient.Event {
	w := videodist.ClusterWorkload{Seed: 200, Rounds: 24, DepartEvery: 3}
	out := make([][]streamclient.Event, len(instances))
	for ti, in := range instances {
		for _, ev := range w.EventsForInstance(in, ti) {
			typ := "offer"
			if ev.Type == cluster.EventStreamDeparture {
				typ = "depart"
			}
			out[ti] = append(out[ti], streamclient.Event{Tenant: ti, Type: typ, Stream: ev.Stream})
		}
	}
	return out
}

// StreamIngest measures remote ingestion throughput through the real
// HTTP front end (internal/httpserve behind an httptest listener): the
// same ~10k-event workload is submitted via one persistent /v1/stream
// connection ("stream"), as :batch posts of 16 events round-robin
// across tenants ("batch"), or as one POST per event ("single") — all
// through internal/loaddrive, the same driver code mmdserve -stream
// runs, so the benchmark measures exactly the CLI's protocol. The
// fleet and listener are built outside the timer, so ns/op — and the
// derived events/sec metric — is pure ingestion cost; all three paths
// preserve per-tenant order and land the fleet in the identical final
// state (pinned by TestDriveParityAcrossVias and the CI smoke). The
// acceptance bar for serving API v4 is stream >= 2x the per-request
// paths on events/sec.
func StreamIngest(b *testing.B, via string) {
	instances := clusterTenants(b)
	seqs := streamIngestEvents(instances)
	events := loaddrive.Interleave(seqs)
	total := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tenants := make([]videodist.ClusterTenant, len(instances))
		for j, in := range instances {
			tenants[j] = videodist.ClusterTenant{Instance: in}
		}
		c, err := videodist.NewCluster(tenants, videodist.ClusterOptions{Shards: 8})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(httpserve.NewHandler(c))
		// Collect the construction garbage now: without this, marking
		// debt from the (untimed) fleet build spills into whichever
		// timed ingestion section the GC happens to interrupt.
		runtime.GC()
		b.StartTimer()

		n := 0
		switch via {
		case "stream":
			n, err = loaddrive.Stream(ts.URL, events)
		case "batch":
			n, err = loaddrive.Batch(ts.URL, seqs, 16)
		case "single":
			n, err = loaddrive.Single(ts.URL, events)
		default:
			b.Fatalf("unknown via %q", via)
		}
		if err != nil {
			b.Fatal(err)
		}
		if n != len(events) {
			b.Fatalf("submitted %d of %d events", n, len(events))
		}
		total = n

		b.StopTimer()
		ts.Close()
		if err := c.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(total), "events/op")
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(total*b.N)/secs, "events/sec")
	}
}

// StreamIngestWAL reruns the StreamIngest "stream" workload with the
// durability subsystem on: the same ~10k events arrive over one
// persistent /v1/stream connection, but every shard journals each
// event to its per-shard WAL segment under the given sync policy
// before acking, so the gap to StreamIngest/stream is the WAL's whole
// price on the hot ingest path. Each iteration logs into a fresh
// directory, created and deleted outside the timer, so segment growth
// from prior iterations never pollutes the measurement. The
// durability acceptance bar is sync=batch (group commit — an acked
// event survives power loss) sustaining >= 70% of WAL-off events/sec
// on hosts where the committer's fsync can overlap the apply loop
// (num_cpu > 1), and >= 45% on a single-CPU host, where the device
// flush stalls the only core (see bench_baseline_test.go).
func StreamIngestWAL(b *testing.B, sync videodist.WALSyncPolicy) {
	instances := clusterTenants(b)
	seqs := streamIngestEvents(instances)
	events := loaddrive.Interleave(seqs)
	total := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir, err := os.MkdirTemp("", "benchwal-*")
		if err != nil {
			b.Fatal(err)
		}
		tenants := make([]videodist.ClusterTenant, len(instances))
		for j, in := range instances {
			tenants[j] = videodist.ClusterTenant{Instance: in}
		}
		c, err := videodist.NewCluster(tenants, videodist.ClusterOptions{
			Shards: 8,
			WAL:    &videodist.WALOptions{Dir: dir, Sync: sync},
		})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(httpserve.NewHandler(c))
		// Collect construction garbage and drain the filesystem's
		// pending journal work (segment creates, the previous
		// iteration's unlinks) before the timer starts — otherwise
		// that debt is paid inside whichever timed fsync the kernel
		// happens to fold it into, and run-to-run variance swamps the
		// steady-state ingest cost this benchmark exists to measure.
		runtime.GC()
		drainDisk()
		b.StartTimer()

		n, err := loaddrive.Stream(ts.URL, events)
		if err != nil {
			b.Fatal(err)
		}
		if n != len(events) {
			b.Fatalf("submitted %d of %d events", n, len(events))
		}
		total = n

		b.StopTimer()
		ts.Close()
		if err := c.Close(); err != nil {
			b.Fatal(err)
		}
		if err := os.RemoveAll(dir); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(total), "events/op")
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(total*b.N)/secs, "events/sec")
	}
}

// Bench names one serving benchmark for programmatic runs.
type Bench struct {
	// Name keys the benchmark in BENCH_serving.json.
	Name string
	// F is the benchmark body.
	F func(*testing.B)
}

// ServingBenchmarks returns the suite snapshotted by `mmdbench -json`:
// the guarded-admission pair (reference rescan vs ledger), the
// catalog-admission pair (isolated vs shared-origin pricing), the
// end-to-end online policy pair, the cluster throughput trio, the
// catalog session workloads, and the HTTP ingestion trio (persistent
// stream vs batch posts vs single posts).
func ServingBenchmarks() []Bench {
	return []Bench{
		{Name: "GuardedAdmission/rescan", F: GuardedAdmissionRescan},
		{Name: "GuardedAdmission/ledger", F: GuardedAdmissionLedger},
		{Name: "CatalogAdmission/isolated", F: func(b *testing.B) { CatalogAdmissionLedger(b, 1) }},
		{Name: "CatalogAdmission/shared", F: func(b *testing.B) { CatalogAdmissionLedger(b, 0.25) }},
		{Name: "OnlinePolicySweep/rescan", F: func(b *testing.B) { OnlinePolicySweep(b, false) }},
		{Name: "OnlinePolicySweep/ledger", F: func(b *testing.B) { OnlinePolicySweep(b, true) }},
		{Name: "ClusterSerial", F: func(b *testing.B) { ClusterWorkload(b, 1) }},
		{Name: "ClusterSharded", F: func(b *testing.B) { ClusterWorkload(b, 8) }},
		{Name: "ClusterAck", F: ClusterAck},
		{Name: "ClusterCatalog/isolated", F: func(b *testing.B) { ClusterCatalog(b, false) }},
		{Name: "ClusterCatalog/shared", F: func(b *testing.B) { ClusterCatalog(b, true) }},
		{Name: "StreamIngest/stream", F: func(b *testing.B) { StreamIngest(b, "stream") }},
		{Name: "StreamIngest/batch16", F: func(b *testing.B) { StreamIngest(b, "batch") }},
		{Name: "StreamIngest/single", F: func(b *testing.B) { StreamIngest(b, "single") }},
	}
}

// DurabilityBenchmarks returns the WAL-on ingestion runs snapshotted
// into the baseline's "durability" section: StreamIngest/stream with
// each sync policy, measured against the WAL-off run for the ratio the
// acceptance bar (batch >= 0.70) is read from.
func DurabilityBenchmarks() []Bench {
	return []Bench{
		{Name: "StreamIngestWAL/none", F: func(b *testing.B) { StreamIngestWAL(b, videodist.WALSyncNone) }},
		{Name: "StreamIngestWAL/interval", F: func(b *testing.B) { StreamIngestWAL(b, videodist.WALSyncInterval) }},
		{Name: "StreamIngestWAL/batch", F: func(b *testing.B) { StreamIngestWAL(b, videodist.WALSyncBatch) }},
	}
}
