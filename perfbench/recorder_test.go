package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// sortQuantile is the reference: nearest-rank quantile of the sorted
// samples.
func sortQuantile(sorted []int64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return float64(sorted[rank-1])
}

func TestRecorderMatchesSortQuantile(t *testing.T) {
	dists := map[string]func(r *rand.Rand) int64{
		// Latency-shaped: log-normal around 50µs with a heavy tail.
		"lognormal": func(r *rand.Rand) int64 { return int64(50e3 * math.Exp(r.NormFloat64())) },
		// Wide uniform over six decades, including the exact small-value
		// buckets.
		"logUniform": func(r *rand.Rand) int64 { return int64(math.Pow(10, 6*r.Float64())) },
		// Bimodal: fast acks plus a cluster of fsync-sized stalls.
		"bimodal": func(r *rand.Rand) int64 {
			if r.Intn(50) == 0 {
				return int64(2e6 + r.Intn(1e6))
			}
			return int64(20e3 + r.Intn(5e3))
		},
	}
	for name, draw := range dists {
		for _, n := range []int{1, 7, 1000, 100000} {
			r := rand.New(rand.NewSource(int64(n)))
			var rec Recorder
			samples := make([]int64, n)
			for i := range samples {
				samples[i] = draw(r)
				rec.Record(time.Duration(samples[i]))
			}
			sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
			for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999, 1} {
				want := sortQuantile(samples, q)
				got := rec.Quantile(q)
				if err := math.Abs(got-want) / math.Max(want, 1); err > 0.01 {
					t.Errorf("%s n=%d q=%v: got %v, want %v (rel err %.4f > 1%%)", name, n, q, got, want, err)
				}
			}
		}
	}
}

func TestRecorderMerge(t *testing.T) {
	var a, b, all Recorder
	r := rand.New(rand.NewSource(3))
	var samples []int64
	for i := 0; i < 5000; i++ {
		v := int64(r.ExpFloat64() * 1e5)
		samples = append(samples, v)
		all.Record(time.Duration(v))
		if i%2 == 0 {
			a.Record(time.Duration(v))
		} else {
			b.Record(time.Duration(v))
		}
	}
	a.Merge(&b)
	for _, q := range []float64{0.5, 0.99} {
		if a.Quantile(q) != all.Quantile(q) {
			t.Errorf("q=%v: merged %v, direct %v", q, a.Quantile(q), all.Quantile(q))
		}
	}
	if !math.IsNaN(new(Recorder).Quantile(0.5)) {
		t.Error("empty recorder quantile should be NaN")
	}
}
