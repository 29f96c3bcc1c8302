package benchkit

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	videodist "repro"
	"repro/internal/cluster"
	"repro/internal/metrics"
)

// The saturation harness answers the question the per-op benchmarks
// cannot: how does acked serving throughput scale with shard count and
// scheduler parallelism when every tenant submits concurrently? One
// submitter goroutine per tenant drives the deterministic session
// workload, every ack's latency lands in a metrics.Histogram, and each
// (shards, GOMAXPROCS) cell reports events/sec plus p50/p99 ack
// latency. mmdbench -json sweeps the grid into the "saturation"
// section of BENCH_serving.json — the checked-in scaling curve.

// ackLatencyBounds are the histogram bucket upper bounds for ack
// latency, in microseconds: roughly 1-2-5 decades from 1µs to 1s, so
// p50/p99 resolve to a factor of ~2.5 anywhere a session call can land.
var ackLatencyBounds = []float64{
	1, 2, 5, 10, 20, 50, 100, 200, 500,
	1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000,
	200_000, 500_000, 1_000_000,
}

// SaturationPoint is one cell of the saturation grid: the measured
// steady-state throughput and ack-latency quantiles of the 8-tenant
// session workload at one (shards, GOMAXPROCS) setting.
type SaturationPoint struct {
	// Shards is the fleet's shard-worker count; GoMaxProcs the
	// scheduler parallelism the cell ran under.
	Shards     int
	GoMaxProcs int
	// Submitters is the number of concurrent submitter goroutines (one
	// per tenant); Events the total acked session calls.
	Submitters int
	Events     int
	// ElapsedSec is the wall-clock of the concurrent drive section;
	// EventsPerSec the headline throughput (Events / ElapsedSec).
	ElapsedSec   float64
	EventsPerSec float64
	// AckP50Micros and AckP99Micros are histogram-quantile upper
	// bounds on per-call ack latency, in microseconds.
	AckP50Micros float64
	AckP99Micros float64
}

// Saturate measures one saturation cell: it builds the 8-tenant fleet
// at the given shard count, pins runtime.GOMAXPROCS to procs for the
// duration (restoring it on return), and drives every tenant's
// deterministic workload (rounds catalog replays with departures and
// gateway churn) from its own goroutine through the acked session
// calls — the same per-event surface ClusterAck times serially. Fleet
// construction and teardown stay outside the measured window.
func Saturate(shards, procs, rounds int) (SaturationPoint, error) {
	if shards < 1 || procs < 1 || rounds < 1 {
		return SaturationPoint{}, fmt.Errorf("benchkit: bad saturation cell shards=%d procs=%d rounds=%d", shards, procs, rounds)
	}
	instances, err := clusterInstances()
	if err != nil {
		return SaturationPoint{}, err
	}
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)

	tenants := make([]videodist.ClusterTenant, len(instances))
	for i, in := range instances {
		tenants[i] = videodist.ClusterTenant{Instance: in}
	}
	c, err := videodist.NewCluster(tenants, videodist.ClusterOptions{Shards: shards})
	if err != nil {
		return SaturationPoint{}, err
	}
	defer c.Close()

	w := videodist.ClusterWorkload{Seed: 200, Rounds: rounds, DepartEvery: 3, ChurnEvery: 8}
	schedules := make([][]videodist.ClusterEvent, c.NumTenants())
	events := 0
	for ti := range schedules {
		schedules[ti] = w.Events(c, ti)
		events += len(schedules[ti])
	}
	hist, err := metrics.NewHistogram(ackLatencyBounds)
	if err != nil {
		return SaturationPoint{}, err
	}

	// Collect construction garbage before the measured window so fleet
	// build debt does not distort the drive section (same discipline as
	// ClusterAck).
	runtime.GC()

	ctx := context.Background()
	errs := make([]error, len(schedules))
	var wg sync.WaitGroup
	start := time.Now()
	for ti := range schedules {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			for _, ev := range schedules[ti] {
				t0 := time.Now()
				var err error
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
				default:
					err = fmt.Errorf("benchkit: unknown workload event type %v", ev.Type)
				}
				if err != nil {
					errs[ti] = err
					return
				}
				hist.Observe(time.Since(t0).Seconds() * 1e6)
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
		Submitters:   len(schedules),
		Events:       events,
		ElapsedSec:   elapsed.Seconds(),
		EventsPerSec: float64(events) / elapsed.Seconds(),
		AckP50Micros: hist.Quantile(0.50),
		AckP99Micros: hist.Quantile(0.99),
	}, nil
}

// SaturationGrid sweeps Saturate over every (shards, procs) pair —
// the scaling curve mmdbench -json checks into BENCH_serving.json.
func SaturationGrid(shards, procs []int, rounds int) ([]SaturationPoint, error) {
	var out []SaturationPoint
	for _, s := range shards {
		for _, p := range procs {
			pt, err := Saturate(s, p, rounds)
			if err != nil {
				return nil, fmt.Errorf("saturation shards=%d procs=%d: %w", s, p, err)
			}
			out = append(out, pt)
		}
	}
	return out, nil
}

// SaturationBench wraps one saturation cell as a testing benchmark —
// the BenchmarkSaturation body — so `go test -bench` (and CI's
// -benchtime=1x smoke) exercises the concurrent-submitter harness
// with GOMAXPROCS>1 on every run.
func SaturationBench(b *testing.B, shards, procs int) {
	events := 0
	var pt SaturationPoint
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		pt, err = Saturate(shards, procs, 2)
		if err != nil {
			b.Fatal(err)
		}
		events = pt.Events
	}
	b.ReportMetric(float64(events), "events/op")
	b.ReportMetric(pt.EventsPerSec, "events/sec")
	b.ReportMetric(pt.AckP50Micros, "ack-p50-µs")
	b.ReportMetric(pt.AckP99Micros, "ack-p99-µs")
}
