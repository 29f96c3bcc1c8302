package benchkit

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	videodist "repro"
	"repro/internal/catalog"
	"repro/internal/generator"
	"repro/internal/httpserve"
	"repro/internal/loaddrive"
	"repro/internal/metrics"
	"repro/streamclient"
)

// The workload benchmarks drive the generator subsystem's skewed
// traffic — Zipf popularity with a flash crowd, diurnal churn — through
// the same measured surfaces as the uniform StreamIngest/Saturate
// workloads, so BENCH_serving.json records how the serving path holds
// up when traffic stops being uniform. Unlike StreamIngest's fleet,
// these fleets run with the catalog enabled (SharedOrigin pricing):
// skewed catalog traffic is the whole point.

// WorkloadKinds names the generator-driven ingestion workloads, the
// keys of the baseline's "workloads" section.
func WorkloadKinds() []string { return []string{"zipf-flash", "diurnal"} }

// workloadEvents builds the named generator schedule over the standard
// 8-tenant benchmark fleet shape (40 channels, 10 gateways).
func workloadEvents(kind string) ([]generator.Event, error) {
	switch kind {
	case "zipf-flash":
		return generator.ZipfFlashCrowd{
			Tenants: 8, Channels: 40, Gateways: 10, Seed: 400, Rounds: 6,
		}.Generate()
	case "diurnal":
		return generator.Diurnal{
			Tenants: 8, Channels: 40, Gateways: 10, Seed: 401, Days: 2,
		}.Generate()
	default:
		return nil, fmt.Errorf("benchkit: unknown workload kind %q", kind)
	}
}

// workloadSeqs converts the schedule to per-tenant wire form for the
// loaddrive/HTTP path. Per-tenant order is the schedule's order, the
// invariant all three ingestion vias preserve.
func workloadSeqs(kind string) ([][]streamclient.Event, error) {
	events, err := workloadEvents(kind)
	if err != nil {
		return nil, err
	}
	out := make([][]streamclient.Event, 8)
	for _, ev := range events {
		out[ev.Tenant] = append(out[ev.Tenant], streamclient.Event{
			Tenant: ev.Tenant, Type: string(ev.Type), Stream: ev.Stream,
			User: ev.User, CatalogID: ev.CatalogID,
		})
	}
	return out, nil
}

// workloadCatalog is the catalog configuration the workload fleets run
// under: every channel fleet-identified under the generator's ch-%03d
// convention, SharedOrigin pricing.
func workloadCatalog(tenants, channels int) *videodist.CatalogOptions {
	return &videodist.CatalogOptions{
		Streams: catalog.IdentityBindings(tenants, channels, func(s int) videodist.CatalogID {
			return videodist.CatalogID(fmt.Sprintf("ch-%03d", s))
		}),
		CostModel: videodist.CatalogSharedOrigin{ReplicationFraction: 0.25},
	}
}

// WorkloadIngest measures skewed-traffic ingestion end to end: the
// named generator workload is submitted through one persistent
// /v1/stream connection against a catalog-enabled fleet — the
// StreamIngest discipline (fleet and listener outside the timer), but
// with catalog offers, the flash crowd, and gateway churn in the event
// mix instead of uniform plain offers.
func WorkloadIngest(b *testing.B, kind string) {
	instances := clusterTenants(b)
	seqs, err := workloadSeqs(kind)
	if err != nil {
		b.Fatal(err)
	}
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
		c, err := videodist.NewCluster(tenants, videodist.ClusterOptions{
			Shards:  8,
			Catalog: workloadCatalog(len(instances), instances[0].NumStreams()),
		})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(httpserve.NewHandler(c))
		// Same discipline as StreamIngest: construction garbage must not
		// spill into the timed ingestion section.
		runtime.GC()
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
		b.StartTimer()
	}
	b.ReportMetric(float64(total), "events/op")
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(total*b.N)/secs, "events/sec")
	}
}

// WorkloadBenchmarks returns the generator-workload suite snapshotted
// into the baseline's "workloads" section.
func WorkloadBenchmarks() []Bench {
	out := make([]Bench, 0, len(WorkloadKinds()))
	for _, kind := range WorkloadKinds() {
		kind := kind
		out = append(out, Bench{
			Name: "WorkloadIngest/" + kind,
			F:    func(b *testing.B) { WorkloadIngest(b, kind) },
		})
	}
	return out
}

// SaturateWorkload measures one saturation cell under a generator
// workload: like Saturate, but every tenant's submitter goroutine
// drives the named skewed schedule (repeated rounds times) through the
// acked session calls of a catalog-enabled fleet. kind "" falls back to
// Saturate's uniform session workload.
func SaturateWorkload(shards, procs, rounds int, kind string) (SaturationPoint, error) {
	if kind == "" {
		return Saturate(shards, procs, rounds)
	}
	if shards < 1 || procs < 1 || rounds < 1 {
		return SaturationPoint{}, fmt.Errorf("benchkit: bad saturation cell shards=%d procs=%d rounds=%d", shards, procs, rounds)
	}
	instances, err := clusterInstances()
	if err != nil {
		return SaturationPoint{}, err
	}
	seqs, err := workloadSeqs(kind)
	if err != nil {
		return SaturationPoint{}, err
	}
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)

	tenants := make([]videodist.ClusterTenant, len(instances))
	for i, in := range instances {
		tenants[i] = videodist.ClusterTenant{Instance: in}
	}
	c, err := videodist.NewCluster(tenants, videodist.ClusterOptions{
		Shards:  shards,
		Catalog: workloadCatalog(len(instances), instances[0].NumStreams()),
	})
	if err != nil {
		return SaturationPoint{}, err
	}
	defer c.Close()

	events := 0
	for ti := range seqs {
		events += len(seqs[ti]) * rounds
	}
	hist, err := metrics.NewHistogram(ackLatencyBounds)
	if err != nil {
		return SaturationPoint{}, err
	}
	runtime.GC()

	ctx := context.Background()
	errs := make([]error, len(seqs))
	var wg sync.WaitGroup
	start := time.Now()
	for ti := range seqs {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for _, ev := range seqs[ti] {
					t0 := time.Now()
					var err error
					switch ev.Type {
					case "offer":
						_, err = c.OfferStream(ctx, ev.Tenant, ev.Stream)
					case "depart":
						_, err = c.DepartStream(ctx, ev.Tenant, ev.Stream)
					case "leave":
						_, err = c.UserLeave(ctx, ev.Tenant, ev.User)
					case "join":
						_, err = c.UserJoin(ctx, ev.Tenant, ev.User)
					case "catalog-offer":
						_, err = c.OfferCatalogStream(ctx, ev.Tenant, videodist.CatalogID(ev.CatalogID))
					case "catalog-depart":
						_, err = c.DepartCatalogStream(ctx, ev.Tenant, videodist.CatalogID(ev.CatalogID))
					default:
						err = fmt.Errorf("benchkit: unknown workload event type %q", ev.Type)
					}
					if err != nil {
						errs[ti] = err
						return
					}
					hist.Observe(time.Since(t0).Seconds() * 1e6)
				}
			}
		}(ti)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := errors.Join(errs...); err != nil {
		return SaturationPoint{}, err
	}
	if got := int(hist.Count()); got != events {
		return SaturationPoint{}, fmt.Errorf("benchkit: acked %d of %d events", got, events)
	}

	fs, err := c.Snapshot()
	if err != nil {
		return SaturationPoint{}, err
	}
	if !fs.AllFeasible {
		return SaturationPoint{}, fmt.Errorf("benchkit: fleet infeasible after saturation drive")
	}
	if err := c.Close(); err != nil {
		return SaturationPoint{}, err
	}
	return SaturationPoint{
		Shards:       shards,
		GoMaxProcs:   procs,
		Submitters:   len(seqs),
		Events:       events,
		ElapsedSec:   elapsed.Seconds(),
		EventsPerSec: float64(events) / elapsed.Seconds(),
		AckP50Micros: hist.Quantile(0.50),
		AckP99Micros: hist.Quantile(0.99),
	}, nil
}
