// Command perfbench is the repository's end-to-end benchmark. It builds
// the real serving stack in one process — streamclient → fleet router →
// httpserve → cluster → catalog (in-process or over catalog/remote) →
// wal → headend (online Allocate) → core (offline pipeline) — drives one
// named workload through it, checks the results, and prints one JSON
// object as the last line of standard output.
//
//	go run . --workload ingest --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// prints the per-layer metrics from a separate traced run and writes
// the span log under .bench_build/trace/. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/streamclient"
)

// outDir holds everything a run writes (WAL segments, span logs),
// relative to the directory the benchmark runs from.
const outDir = ".bench_build"

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name: ingest, flash-durable or churn-resolve")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: traced run printing per-layer metrics; 0: end-to-end metrics")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool) error {
	sp, err := specByName(name)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if err := stampEnv(sp, seed); err != nil {
		return err
	}
	budget := time.Duration(seconds) * time.Second
	var res result
	if traced {
		res, err = runTraced(sp, seed, budget)
	} else {
		res, err = runMeasured(sp, seed, budget)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// stampEnv prints the environment the numbers were taken in.
func stampEnv(sp spec, seed int64) error {
	env := map[string]any{
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu":    runtime.NumCPU(),
		"workload":   sp.name,
		"seed":       seed,
		"tenants":    sp.tenants,
		"shards":     sp.shards,
	}
	if sp.rate > 0 {
		env["open_loop_rate_per_s"] = sp.rate
	}
	if sp.wal {
		env["wal_fs"] = fsType(outDir)
		env["wal_sync"] = "batch"
	}
	line, err := json.Marshal(env)
	if err != nil {
		return err
	}
	fmt.Println("# env", string(line))
	return nil
}

// fsType names the filesystem holding dir, from statfs's magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

// Phase budgets. setups set-ups are timed and the median reported;
// the open loop takes openShare of the measured time and the closed
// loop the rest. The open loop gets the larger share because
// ack_p99_ms takes a minimum over its passes, which settles only with
// a few dozen of them; the closed loop's median rate needs fewer.
const (
	setups    = 9
	openShare = 0.6
	minClosed = 4 // closed-loop passes, at least
	// ackWindow is the fewest events in an open-loop latency window:
	// enough to leave ten samples beyond each window's p99.
	ackWindow = 1000
	// referencePasses is how many leading passes the utility gate
	// replays; every run has at least minClosed passes.
	referencePasses = 4
	setupLimit      = 2 * time.Minute
)

// runMeasured is the untraced run behind the end-to-end metrics.
func runMeasured(sp spec, seed int64, budget time.Duration) (result, error) {
	ins, err := sp.instances(seed)
	if err != nil {
		return result{}, err
	}
	pass, err := sp.pass(seed, ins)
	if err != nil {
		return result{}, err
	}
	peak := startHeapSampler()

	st, setupS, err := setUp(sp, seed)
	if err != nil {
		return result{}, err
	}
	m, err := measure(sp, st, pass, budget)
	if cerr := closeWatched(st); err == nil {
		err = cerr
	}
	heapPeak := peak()
	if err != nil {
		return result{}, err
	}

	// The gate replays the run's first referencePasses passes: a replay
	// costs about as much as the run's own apply work, and these passes
	// cover the warm-up and both loops' traffic. Shared-origin pricing
	// over a pipelined stream depends on how catalog acquisitions
	// interleave with settlements, so the catalog workload
	// (flash-durable) has no order-determined reference; its gates are
	// the invariants (feasibility, drained refs, one ack per event).
	if !sp.catalog {
		stop := watch("reference", setupLimit)
		defer stop()
		n := min(len(m.passUtil), referencePasses)
		want, err := headendReference(ins, pass, n)
		if err != nil {
			return result{}, err
		}
		if err := checkUtility(m.passUtil[:n], want); err != nil {
			return result{}, err
		}
	}

	// utility covers the first pass, from a fresh fleet: the same
	// events in every run of a seed, however fast the stack is.
	gained, offered := m.passUtil[0], offeredUtility(pass, ins)
	return result{
		Correct:   m.failed == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics: map[string]metric{
			"setup_s":      {setupS, "s"},
			"events_per_s": {median(m.rates), "1/s"},
			// Each window's p50 and p99 are exact to the recorder's
			// resolution. On a shared VM the host deschedules the
			// whole process for milliseconds in a varying share of
			// windows, so the p50 is the median over windows and the
			// p99 tailP99's, which keeps the workload's own bursts
			// and leaves the neighbours' stalls out.
			"ack_p50_ms":    {quantile(m.ackP50, 0.5) / 1e6, "ms"},
			"ack_p99_ms":    {tailP99(m.ackP99) / 1e6, "ms"},
			"utility":       {gained / offered, "ratio"},
			"success_share": {1 - float64(m.failed)/float64(m.attempted), "ratio"},
			"heap_peak_mib": {float64(heapPeak) / (1 << 20), "MiB"},
		},
	}, nil
}

// setUp builds the workload's stack setups times, timing each build
// (instance generation, clusters, listeners, dials, WAL open), and
// keeps the last one. It returns the median set-up time in seconds.
func setUp(sp spec, seed int64) (*stack, float64, error) {
	var times []float64
	var st *stack
	for i := 0; i < setups; i++ {
		if st != nil {
			if err := closeWatched(st); err != nil {
				return nil, 0, err
			}
		}
		runtime.GC()
		walDir := ""
		if sp.wal {
			walDir = walPath(filepath.Join(outDir, "wal"), i)
		}
		stop := watch("setup", setupLimit)
		start := time.Now()
		var err error
		st, err = build(sp, seed, walDir, seams{})
		if err == nil && st.url != "" {
			st.conn, err = st.dial()
		}
		times = append(times, time.Since(start).Seconds())
		stop()
		if err != nil {
			if st != nil {
				_ = closeWatched(st)
			}
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
	}
	runtime.GC()
	return st, median(times), nil
}

func closeWatched(st *stack) error {
	stop := watch("teardown", setupLimit)
	defer stop()
	return st.close()
}

// measured is what the phases of one run collected.
type measured struct {
	attempted, failed int
	passUtil          []float64   // per pass, in run order
	rates             []float64   // closed-loop events/s, one per pass
	ackP50            []float64   // ack latency median in ns, one per open-loop window or session pass
	ackP99            [][]float64 // ack latency p99 in ns by window place in the pass, one per pass
}

// quantile returns the q-quantile of xs, interpolating linearly between
// order statistics (the inclusive definition, numpy's default).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func (m *measured) add(pd passDone, n int) {
	m.attempted += n
	m.failed += pd.failed
	m.passUtil = append(m.passUtil, pd.utility)
}

// measure runs the phases on a built stack: one warm-up pass, then
// (stream workloads) whole passes open loop at the workload's fixed
// rate, then closed-loop passes until the budget is spent. Fleet
// invariants are checked after the warm-up, after the open loop and
// after every closed-loop pass.
func measure(sp spec, st *stack, pass []streamclient.Event, budget time.Duration) (*measured, error) {
	m := new(measured)
	if sp.session {
		return m, measureSession(st, pass, budget, m)
	}
	d := newLoadConn(st.conn, nil, 0)
	phaseLimit := budget + time.Minute

	stop := watch("warm-up", phaseLimit)
	pd, _, err := d.closedPass(pass)
	stop()
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	m.add(pd, len(pass))
	if err := st.gate("warm-up"); err != nil {
		return nil, err
	}

	open := time.Duration(float64(budget) * openShare)
	passes := max(2, int(math.Round(open.Seconds()*sp.rate/float64(len(pass)))))
	stop = watch("open loop", phaseLimit)
	var lag Recorder
	pds, o, err := d.openPasses(pass, passes, sp.rate, ackWindow, &lag)
	stop()
	if err != nil {
		return nil, fmt.Errorf("open loop: %w", err)
	}
	for _, pd := range pds {
		m.add(pd, len(pass))
	}
	m.ackP50, m.ackP99 = o.p50, o.p99
	if err := st.gate("open loop"); err != nil {
		return nil, err
	}

	stop = watch("closed loop", phaseLimit)
	defer stop()
	deadline := time.Now().Add(budget - open)
	for len(m.rates) < minClosed || time.Now().Before(deadline) {
		pd, elapsed, err := d.closedPass(pass)
		if err != nil {
			return nil, fmt.Errorf("closed loop: %w", err)
		}
		m.add(pd, len(pass))
		m.rates = append(m.rates, float64(len(pass))/elapsed.Seconds())
		if err := st.gate("closed loop"); err != nil {
			return nil, err
		}
	}
	if err := d.finish(); err != nil {
		return nil, fmt.Errorf("stream close: %w", err)
	}
	st.conn = nil
	return m, nil
}

// measureSession is churn-resolve's closed loop: one caller, each call
// timed, passes repeated until the budget is spent.
func measureSession(st *stack, pass []streamclient.Event, budget time.Duration, m *measured) error {
	c := st.nodes[0]
	stop := watch("warm-up", budget+time.Minute)
	var warm Recorder
	pd, _, err := sessionPass(c, pass, &warm, nil, 0)
	stop()
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	m.add(pd, len(pass))
	stop = watch("closed loop", budget+time.Minute)
	defer stop()
	deadline := time.Now().Add(budget)
	for len(m.rates) < minClosed || time.Now().Before(deadline) {
		ack := new(Recorder)
		pd, elapsed, err := sessionPass(c, pass, ack, nil, 0)
		if err != nil {
			return fmt.Errorf("closed loop: %w", err)
		}
		m.add(pd, len(pass))
		m.ackP50 = append(m.ackP50, ack.Quantile(0.5))
		if m.ackP99 == nil {
			m.ackP99 = make([][]float64, 1)
		}
		m.ackP99[0] = append(m.ackP99[0], ack.Quantile(0.99))
		m.rates = append(m.rates, float64(len(pass))/elapsed.Seconds())
	}
	return st.gate("closed loop")
}

// startHeapSampler samples the Go heap every few milliseconds until the
// returned func is called, which returns the peak in bytes.
func startHeapSampler() func() uint64 {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	var peak uint64
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			peak = max(peak, sample[0].Value.Uint64())
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() uint64 {
		close(done)
		wg.Wait()
		return peak
	}
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailP99 is ack_p99_ms's statistic over per-window p99s grouped by
// the window's place in the pass: at each place, the p99 every pass
// reaches (the smallest over passes), and of those the worst place. A
// burst the workload's schedule puts at one place raises that place in
// every pass and shows; a host stall that hits a place in only some
// passes does not.
func tailP99(byPlace [][]float64) float64 {
	worst := math.Inf(-1)
	for _, xs := range byPlace {
		worst = max(worst, slices.Min(xs))
	}
	return worst
}
