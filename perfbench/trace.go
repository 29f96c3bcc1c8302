package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark's own
// code around the call. Parent is the ID of the span that caused it
// (0 for a root). Times are nanoseconds since the tracer started.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpansPerName caps how many spans of one name are kept, which
// bounds the span log and the file it is written to. Later spans of
// that name are counted as dropped; no metric is computed from stored
// spans, so the cap only thins the self-time summary.
const maxSpansPerName = 1 << 13

// Tracer keeps spans in memory until the run ends. A nil *Tracer is
// the untraced mode: every method is a no-op, so call sites need no
// branches.
type Tracer struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []Span
	kept    map[string]int
	dropped map[string]int
}

// NewTracer starts an empty span log.
func NewTracer() *Tracer {
	return &Tracer{t0: time.Now(), kept: make(map[string]int), dropped: make(map[string]int)}
}

// now returns the tracer clock.
func (tr *Tracer) now() int64 { return int64(time.Since(tr.t0)) }

// Begin returns a span's start time; pass it to End.
func (tr *Tracer) Begin() (start int64) {
	if tr == nil {
		return 0
	}
	return tr.now()
}

// End records a span named name that began at start and returns its
// duration.
func (tr *Tracer) End(name string, parent int, start int64) time.Duration {
	if tr == nil {
		return 0
	}
	end := tr.now()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.kept[name] >= maxSpansPerName {
		tr.dropped[name]++
	} else {
		tr.kept[name]++
		tr.spans = append(tr.spans, Span{ID: len(tr.spans) + 1, Parent: parent, Name: name, Start: start, End: end})
	}
	return time.Duration(end - start)
}

// Root opens a long-lived parent span and returns its ID, reserved up
// front so children recorded while it is open can name it, and the
// func that closes it.
func (tr *Tracer) Root(name string, parent int) (id int, end func()) {
	if tr == nil {
		return 0, func() {}
	}
	start := tr.now()
	tr.mu.Lock()
	id = len(tr.spans) + 1
	tr.spans = append(tr.spans, Span{ID: id, Parent: parent, Name: name, Start: start, End: -1})
	tr.mu.Unlock()
	return id, func() {
		end := tr.now()
		tr.mu.Lock()
		tr.spans[id-1].End = end
		tr.mu.Unlock()
	}
}

// LayerTime is one span name's aggregate over its kept spans: how
// many, their total duration, and their self time — duration minus the
// part of each span's interval its kept child spans cover — plus how
// many spans of the name were dropped past the cap.
type LayerTime struct {
	Spans   int     `json:"spans"`
	Dropped int     `json:"dropped,omitempty"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// SelfTimes aggregates every recorded span by name.
func (tr *Tracer) SelfTimes() map[string]LayerTime {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range tr.spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]LayerTime)
	for _, s := range tr.spans {
		if s.End < 0 {
			continue
		}
		dur := s.End - s.Start
		self := dur - covered(children[s.ID], s.Start, s.End)
		lt := out[s.Name]
		lt.Spans++
		lt.Dropped = tr.dropped[s.Name]
		lt.TotalMs += float64(dur) / 1e6
		lt.SelfMs += float64(self) / 1e6
		out[s.Name] = lt
	}
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi].
// Children may overlap each other (they can run on other goroutines),
// so their union, not their sum, is subtracted.
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// Write stores the span log and the per-name self times as one JSON
// file under dir.
func (tr *Tracer) Write(dir, name string) (string, error) {
	if tr == nil {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, name)
	self := tr.SelfTimes()
	tr.mu.Lock()
	doc := struct {
		Layers map[string]LayerTime `json:"layers"`
		Spans  []Span               `json:"spans"`
	}{self, tr.spans}
	data, err := json.Marshal(doc)
	tr.mu.Unlock()
	if err != nil {
		return "", fmt.Errorf("trace encode: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("trace write: %w", err)
	}
	return path, nil
}
