package httpserve

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/streamclient"
)

// FuzzStreamDecode pins both hand-written decoders against the stdlib
// for arbitrary bytes. Whenever fastParseEvent accepts a line,
// json.Unmarshal into streamclient.Event must succeed with the same
// values; whenever fastParseBatch accepts a body, decodeBatchFallback
// must accept it too, with the same events, wire types and semantic
// rejection. Bailing out is always allowed: the fallback handles it.
func FuzzStreamDecode(f *testing.F) {
	for _, seeds := range [][]string{canonicalLines, nonCanonicalLines, canonicalBatchBodies, nonCanonicalBatchBodies} {
		for _, s := range seeds {
			f.Add([]byte(s))
		}
	}
	f.Add([]byte(semanticRejectBody))
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, ok := fastParseEvent(data); ok {
			var want streamclient.Event
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatalf("fast path accepted %q, stdlib rejects it: %v", data, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("fast parse of %q = %+v, stdlib %+v", data, got, want)
			}
		}
		var fast batchScratch
		ok, fastErr := fastParseBatch(data, &fast)
		if !ok {
			return
		}
		slow := batchScratch{body: data}
		badJSON, slowErr := decodeBatchFallback(&slow)
		if badJSON != nil {
			t.Fatalf("fast path accepted batch %q, stdlib rejects it: %v", data, badJSON)
		}
		if (fastErr == nil) != (slowErr == nil) || fastErr != nil && fastErr.Error() != slowErr.Error() {
			t.Fatalf("batch %q: fast rejection %v, stdlib rejection %v", data, fastErr, slowErr)
		}
		if !reflect.DeepEqual(fast.events, slow.events) || !reflect.DeepEqual(fast.types, slow.types) {
			t.Fatalf("batch %q: fast %+v %v, stdlib %+v %v", data, fast.events, fast.types, slow.events, slow.types)
		}
	})
}
