package httpserve

import (
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	videodist "repro"
)

// canonicalBatchBody is a 16-event wire batch in the canonical shape
// every known client emits (the benchkit driver marshals exactly this).
const canonicalBatchBody = `[` +
	`{"type":"offer","stream":0},{"type":"offer","stream":1},` +
	`{"type":"offer","stream":2},{"type":"offer","stream":3},` +
	`{"type":"depart","stream":1},{"type":"depart","stream":2},` +
	`{"type":"leave","user":0},{"type":"join","user":0},` +
	`{"type":"leave","user":1},{"type":"join","user":1},` +
	`{"type":"resolve","install":false},{"type":"resolve","install":true},` +
	`{"type":"offer","stream":4},{"type":"offer","stream":5},` +
	`{"type":"depart","stream":4},{"type":"resolve"}` +
	`]`

// stdlibBatchEvents decodes a batch body the way the pre-pooling
// handler did: stdlib array decode, then the shared conversion.
func stdlibBatchEvents(t *testing.T, body string) ([]videodist.ClusterEvent, []string) {
	t.Helper()
	var reqs []eventRequest
	if err := json.Unmarshal([]byte(body), &reqs); err != nil {
		t.Fatalf("stdlib decode of %q: %v", body, err)
	}
	var s batchScratch
	for _, req := range reqs {
		if err := appendBatchEvent(&s, req.Type, req.Stream, req.User, req.Install, req.CatalogID); err != nil {
			t.Fatalf("convert %q: %v", body, err)
		}
	}
	return s.events, s.types
}

// canonicalBatchBodies are batch bodies the fast path must accept.
var canonicalBatchBodies = []string{
	canonicalBatchBody,
	`[]`,
	` [ ] `,
	`[{"type":"offer","stream":7}]`,
	`[{"type":"catalog-offer","catalog_id":"ch-003"},{"type":"catalog-depart","catalog_id":"ch-003"}]`,
	"[\n  {\"type\": \"offer\", \"stream\": 2},\n  {\"type\": \"leave\", \"user\": 1}\n]\n",
}

// nonCanonicalBatchBodies are bodies the fast path must hand to the
// stdlib decoder.
var nonCanonicalBatchBodies = []string{
	`{"type":"offer"}`,                                          // not an array
	`[{"type":"offer","stream":3}`,                              // unterminated
	`[{"type":"offer","stream":3}] trail`,                       // trailing garbage
	`[{"type":"of\u0066er","stream":3}]`,                        // escape in string
	`[{"type":"offer","nested":{"a":1}}]`,                       // nested object
	`[{"type":"offer","stream":[1]}]`,                           // nested array
	`[{"type":"offer","stream":3},]`,                            // trailing comma
	`[{"type":"mystery"}]`,                                      // unknown token: stdlib shapes the error
	`[{"type":"offer","stream":123456789012345}]`,               // fast-int overflow
	"[{\"type\":\"catalog-offer\",\"catalog_id\":\"ch\t003\"}]", // raw control byte: invalid JSON
}

// semanticRejectBody is canonical JSON the batch path rejects: its
// second event is a catalog offer with no catalog_id.
const semanticRejectBody = `[{"type":"offer"},{"type":"catalog-offer"}]`

// TestFastParseBatchMatchesStdlib pins the batch array scanner against
// the stdlib path: every body it accepts must produce exactly the
// events the stdlib decode produces, and everything it rejects must be
// either non-canonical (stdlib fallback handles it) or carry the same
// rejection the stdlib path reports.
func TestFastParseBatchMatchesStdlib(t *testing.T) {
	for _, body := range canonicalBatchBodies {
		var s batchScratch
		ok, err := fastParseBatch([]byte(body), &s)
		if !ok || err != nil {
			t.Fatalf("fast path rejected canonical body %q (ok=%v err=%v)", body, ok, err)
		}
		wantEvents, wantTypes := stdlibBatchEvents(t, body)
		if len(wantEvents) == 0 {
			wantEvents, wantTypes = s.events[:0], s.types[:0] // both empty
		}
		if !reflect.DeepEqual(s.events, wantEvents) || !reflect.DeepEqual(s.types, wantTypes) {
			t.Errorf("fast parse of %q =\n%+v %v\nstdlib path =\n%+v %v",
				body, s.events, s.types, wantEvents, wantTypes)
		}
	}

	for _, body := range nonCanonicalBatchBodies {
		var s batchScratch
		if ok, _ := fastParseBatch([]byte(body), &s); ok {
			t.Errorf("fast path accepted non-canonical body %q", body)
		}
	}

	// Semantic rejections surface from the fast path with the same
	// message the stdlib path produces.
	var s batchScratch
	ok, err := fastParseBatch([]byte(semanticRejectBody), &s)
	if !ok || err == nil || !strings.Contains(err.Error(), "batch event 1: catalog-offer needs catalog_id") {
		t.Fatalf("missing catalog_id: ok=%v err=%v", ok, err)
	}
}

// TestAppendBatchResponseMatchesStdlibDecode pins the hand-rolled batch
// response encoder: every object it emits must decode into exactly the
// eventResponse the pre-pooling handler's stdlib marshal decoded into.
func TestAppendBatchResponseMatchesStdlibDecode(t *testing.T) {
	cases := []struct {
		typ string
		res videodist.EventResult
	}{
		{"offer", videodist.EventResult{Type: videodist.ClusterStreamArrival,
			Offer: videodist.OfferResult{Accepted: true, Subscribers: []int{2, 5}, Utility: 7.25}}},
		{"offer", videodist.EventResult{Type: videodist.ClusterStreamArrival}}, // rejected: nil -> null
		{"depart", videodist.EventResult{Type: videodist.ClusterStreamDeparture,
			Depart: videodist.DepartResult{Removed: true, Subscribers: []int{0}}}},
		{"leave", videodist.EventResult{Type: videodist.ClusterUserLeave,
			Churn: videodist.ChurnResult{Changed: true, Streams: []int{1, 4}}}},
		{"join", videodist.EventResult{Type: videodist.ClusterUserJoin}},
		{"resolve", videodist.EventResult{Type: videodist.ClusterResolve,
			Resolve: videodist.ResolveResult{Installed: true, OnlineValue: 1.5, OfflineValue: 2e-7}}},
		{"resolve", videodist.EventResult{Type: videodist.ClusterResolve,
			Err: errors.New(`re-solve failed: "quoted" & ünïcode`)}},
		{"catalog-offer", videodist.EventResult{Type: videodist.ClusterStreamArrival,
			CatalogID: "ch-001",
			Catalog: videodist.CatalogResult{Admitted: true, Subscribers: []int{3}, Utility: 4.5,
				Refs: 2, SharedWith: []int{1}, CostScale: 0.25, FullCost: 10, CostCharged: 2.5}}},
		{"catalog-depart", videodist.EventResult{Type: videodist.ClusterStreamDeparture,
			CatalogID: "ch-001",
			Catalog:   videodist.CatalogResult{Removed: true, Refs: 0, Evicted: true}}},
	}
	for i, tc := range cases {
		line := appendBatchResponse(nil, tc.typ, tc.res)
		var got eventResponse
		if err := json.Unmarshal(line, &got); err != nil {
			t.Fatalf("case %d: emitted invalid JSON %q: %v", i, line, err)
		}
		// The reference: build the eventResponse exactly as the
		// pre-pooling handler did and round-trip it through the stdlib.
		ref := eventResponse{Type: tc.typ}
		switch {
		case tc.res.CatalogID != "":
			v := tc.res.Catalog
			ref.Catalog = &v
		case tc.res.Type == videodist.ClusterStreamArrival:
			v := tc.res.Offer
			ref.Offer = &v
		case tc.res.Type == videodist.ClusterStreamDeparture:
			v := tc.res.Depart
			ref.Depart = &v
		case tc.res.Type == videodist.ClusterUserLeave, tc.res.Type == videodist.ClusterUserJoin:
			v := tc.res.Churn
			ref.Churn = &v
		case tc.res.Type == videodist.ClusterResolve:
			v := tc.res.Resolve
			ref.Resolve = &v
		}
		if tc.res.Err != nil {
			ref.Error = tc.res.Err.Error()
		}
		refJSON, err := json.Marshal(ref)
		if err != nil {
			t.Fatal(err)
		}
		var want eventResponse
		if err := json.Unmarshal(refJSON, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("case %d:\nhand-rolled %s\n-> %+v\nstdlib      %s\n-> %+v",
				i, line, got, refJSON, want)
		}
	}
}

// TestBatchCodecAllocationFree pins the pooled batch codec: once the
// scratch is warm, decoding a canonical 16-event batch body and
// encoding its 16 responses allocate nothing at all — the slices come
// from the scratch and go back, and the interned wire tokens mean
// storing a type name stores no new string. This is the regression bar
// for the batch endpoint's handler-side overhead (the remaining batch16
// allocations live in ApplyBatch's settlement plumbing, not the codec).
func TestBatchCodecAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counters are unreliable under -race")
	}
	body := []byte(canonicalBatchBody)
	s := batchPool.Get().(*batchScratch)
	defer batchPool.Put(s)

	// Warm: one parse grows the event and type slices to capacity.
	s.events, s.types = s.events[:0], s.types[:0]
	if ok, err := fastParseBatch(body, s); !ok || err != nil {
		t.Fatalf("warmup parse: ok=%v err=%v", ok, err)
	}
	if avg := testing.AllocsPerRun(200, func() {
		s.events, s.types = s.events[:0], s.types[:0]
		if ok, err := fastParseBatch(body, s); !ok || err != nil {
			t.Fatalf("parse: ok=%v err=%v", ok, err)
		}
	}); avg != 0 {
		t.Fatalf("warm batch decode allocates %.2f per batch, want 0", avg)
	}

	// Encode: one synthetic result per decoded event, with every slice
	// field populated so the int-slice encoder runs too.
	results := make([]videodist.EventResult, len(s.events))
	for i, ev := range s.events {
		res := videodist.EventResult{Type: ev.Type}
		switch ev.Type {
		case videodist.ClusterStreamArrival:
			res.Offer = videodist.OfferResult{Accepted: true, Subscribers: []int{1, 2}, Utility: 3.5}
		case videodist.ClusterStreamDeparture:
			res.Depart = videodist.DepartResult{Removed: true, Subscribers: []int{1}}
		case videodist.ClusterUserLeave, videodist.ClusterUserJoin:
			res.Churn = videodist.ChurnResult{Changed: true, Streams: []int{0, 4}}
		case videodist.ClusterResolve:
			res.Resolve = videodist.ResolveResult{Installed: true, OnlineValue: 1.25, OfflineValue: 0.5}
		}
		results[i] = res
	}
	encode := func() {
		out := append(s.out[:0], '[')
		for i, res := range results {
			if i > 0 {
				out = append(out, ',')
			}
			out = appendBatchResponse(out, s.types[i], res)
		}
		s.out = append(out, ']', '\n')
	}
	encode() // warm the output buffer
	if avg := testing.AllocsPerRun(200, encode); avg != 0 {
		t.Fatalf("warm batch encode allocates %.2f per batch, want 0", avg)
	}
}

// TestBatchFallbackDecodeStreams pins the stdlib half of the batch
// codec: decodeBatchFallback walks the array with a json.Decoder into
// the scratch's single reused eventRequest, so a non-canonical batch
// never materializes an []eventRequest. The residual cost is one
// string per element (the decoded type name — the stdlib always copies
// strings out of its buffer) plus a small constant for the decoder
// itself. The byte bound is the teeth: whole-array decoding costs
// ~130 B/event here (backing array plus growth copies) versus ~15 for
// the streaming walk, so reintroducing it blows straight past 48·n.
func TestBatchFallbackDecodeStreams(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counters are unreliable under -race")
	}
	const n = 256
	// Stream ids past the fast scanner's integer range keep the body
	// off the canonical path, so this exercises exactly the route a
	// non-canonical batch takes in serving.
	var sb strings.Builder
	sb.WriteString("[")
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(`{"type":"offer","stream":` + strconv.Itoa(1234567890123456+i) + `}`)
	}
	sb.WriteString("]")
	s := batchPool.Get().(*batchScratch)
	defer batchPool.Put(s)
	s.body = append(s.body[:0], sb.String()...)

	s.events, s.types = s.events[:0], s.types[:0]
	if ok, _ := fastParseBatch(s.body, s); ok {
		t.Fatal("fast path accepted the oversized stream ids; fallback not exercised")
	}

	decode := func() {
		s.events, s.types = s.events[:0], s.types[:0]
		if badJSON, semantic := decodeBatchFallback(s); badJSON != nil || semantic != nil {
			t.Fatalf("fallback decode: %v / %v", badJSON, semantic)
		}
	}
	decode() // warm the event and type slices
	if len(s.events) != n || s.events[0].Type != videodist.ClusterStreamArrival {
		t.Fatalf("fallback decoded %d events (first %+v), want %d offers", len(s.events), s.events[0], n)
	}
	if avg := testing.AllocsPerRun(100, decode); avg > n+24 {
		t.Fatalf("warm fallback decode allocates %.1f per %d-event batch, want <= %d (one string per element plus decoder overhead)", avg, n, n+24)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decode()
	runtime.ReadMemStats(&after)
	if got, max := after.TotalAlloc-before.TotalAlloc, uint64(48*n); got > max {
		t.Fatalf("warm fallback decode allocates %d bytes per %d-event batch, want <= %d (whole-array decode would materialize the batch)", got, n, max)
	}
}
