package main

import (
	"math"
	"math/bits"
	"time"
)

// subBits sets the recorder's resolution: every power-of-two range of
// nanoseconds is split into 2^subBits linear sub-buckets, so a bucket
// spans at most 1/2^subBits of its lower bound. Reporting the bucket
// midpoint keeps the relative error of any quantile within half of
// that: 1/256 < 0.4% for subBits 7.
const subBits = 7

const subCount = 1 << subBits

// Recorder is a log-linear latency histogram in the style of
// HdrHistogram: fixed memory, no allocation per sample, and quantiles
// within 0.4% of the exact sample quantile. The zero value is ready to
// use. A Recorder is not safe for concurrent use.
type Recorder struct {
	counts [64 * subCount]uint64
	n      uint64
	max    int64
}

// bucketOf maps a non-negative nanosecond value to its bucket. Values
// below subCount get one bucket each (exact); above, the bucket is the
// pair (exponent, top subBits bits below the leading one).
func bucketOf(v uint64) int {
	if v < subCount {
		return int(v)
	}
	exp := bits.Len64(v) - 1 // >= subBits
	shift := exp - subBits
	mant := (v >> shift) & (subCount - 1)
	return (shift+1)*subCount + int(mant)
}

// bucketMid returns the midpoint of bucket b's value range.
func bucketMid(b int) float64 {
	if b < subCount {
		return float64(b)
	}
	shift := b/subCount - 1
	mant := uint64(b % subCount)
	lo := (subCount + mant) << shift
	width := uint64(1) << shift
	return float64(lo) + float64(width-1)/2
}

// Record adds one duration. Negative durations count as zero.
func (r *Recorder) Record(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	r.counts[bucketOf(uint64(v))]++
	r.n++
	if v > r.max {
		r.max = v
	}
}

// Merge adds every sample of o.
func (r *Recorder) Merge(o *Recorder) {
	for i, c := range o.counts {
		r.counts[i] += c
	}
	r.n += o.n
	if o.max > r.max {
		r.max = o.max
	}
}

// Quantile returns the q-quantile (0 < q <= 1) in nanoseconds under the
// nearest-rank definition: the smallest sample with at least
// ceil(q*n) samples at or below it. It returns NaN with no samples.
func (r *Recorder) Quantile(q float64) float64 {
	if r.n == 0 {
		return math.NaN()
	}
	rank := uint64(math.Ceil(q * float64(r.n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for b, c := range r.counts {
		seen += c
		if seen >= rank {
			return math.Min(bucketMid(b), float64(r.max))
		}
	}
	return float64(r.max)
}
