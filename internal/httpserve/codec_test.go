package httpserve

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	videodist "repro"
	"repro/streamclient"
)

// canonicalLines are wire lines in the shape every known client emits.
var canonicalLines = []string{
	`{"tenant":0,"type":"offer","stream":3}`,
	`{"tenant":7,"type":"depart","stream":12}`,
	`{"tenant":1,"type":"leave","user":4}`,
	`{"tenant":1,"type":"join","user":0}`,
	`{"tenant":2,"type":"resolve","install":true}`,
	`{"tenant":2,"type":"resolve","install":false}`,
	`{"tenant":0,"type":"catalog-offer","catalog_id":"ch-003"}`,
	`{"tenant":3,"type":"catalog-depart","catalog_id":"espn-hd"}`,
	` { "tenant" : 5 , "type" : "offer" , "stream" : 9 } `,
	`{"type":"offer","tenant":4,"stream":1}`, // key order free
	`{"tenant":-1,"type":"offer"}`,           // negative int
	`{"tenant":0,"type":"offer","stream":123456789}`,
	"{}",
}

// nonCanonicalLines are lines the fast path must hand to the stdlib:
// exotic but valid JSON (which keeps working through the fallback) and
// invalid JSON (which the stdlib rejects with its own message).
var nonCanonicalLines = []string{
	`{"tenant":0,"type":"of\u0066er","stream":3}`,                          // escape in string
	`{"tenant":0,"type":"offer","stream":3,"extra":1}`,                     // unknown key
	`{"tenant":0,"type":"offer","stream":3.0}`,                             // float
	`{"tenant":12345678901,"type":"offer"}`,                                // would overflow the fast int
	`{"tenant":0,"type":"offer","catalog_id":"żółć"}`,                      // non-ASCII string
	`{"tenant":0,"type":"offer","stream":null}`,                            // null value
	`{"tenant": 0, "type": "offer", "stream": 2} trail`,                    // trailing garbage
	`{"tenant":0,"type":"offer","stream":007}`,                             // leading zero: invalid JSON
	`{"tenant":-01,"type":"offer"}`,                                        // leading zero after sign
	"{\"tenant\":0,\"type\":\"catalog-offer\",\"catalog_id\":\"ch\t003\"}", // raw control byte: invalid JSON
}

// TestFastParseMatchesStdlib pins the hand-rolled line scanner against
// the stdlib decoder: on every line it accepts, the parsed event must
// equal json.Unmarshal's; lines it rejects must still round-trip
// through the fallback, so parseStreamEvent is stdlib-equivalent on
// all valid input.
func TestFastParseMatchesStdlib(t *testing.T) {
	for _, line := range canonicalLines {
		var want streamclient.Event
		if err := json.Unmarshal([]byte(line), &want); err != nil {
			t.Fatalf("bad test line %q: %v", line, err)
		}
		if got, ok := fastParseEvent([]byte(line)); ok && !reflect.DeepEqual(got, want) {
			t.Errorf("fast parse of %q = %+v, stdlib %+v", line, got, want)
		}
	}
	for _, line := range nonCanonicalLines {
		if _, ok := fastParseEvent([]byte(line)); ok {
			t.Errorf("fast path accepted non-canonical line %q", line)
		}
	}
	// And through parseStreamEvent the valid ones still decode.
	ev, _, err := parseStreamEvent([]byte(`{"tenant":0,"type":"of\u0066er","stream":3}`))
	if err != nil || ev.Type != videodist.ClusterStreamArrival || ev.Stream != 3 {
		t.Fatalf("fallback parse = %+v, %v", ev, err)
	}
	if _, _, err := parseStreamEvent([]byte(`{not json`)); err == nil {
		t.Fatal("malformed line accepted")
	}
}

// TestAppendResultLineMatchesStdlibDecode pins the hand-rolled result
// encoder: every line it emits must decode (stdlib) into exactly the
// streamclient.Result the equivalent stdlib encoding decodes into —
// including the nil-vs-empty slice semantics of omitempty fields.
func TestAppendResultLineMatchesStdlibDecode(t *testing.T) {
	cases := []videodist.StreamResult{
		{Seq: 0, Type: videodist.ClusterStreamArrival,
			Offer: videodist.OfferResult{Accepted: true, Subscribers: []int{2, 5}, Utility: 7.25}},
		{Seq: 1, Type: videodist.ClusterStreamArrival,
			Offer: videodist.OfferResult{}}, // rejected: nil subscribers -> null
		{Seq: 2, Type: videodist.ClusterStreamDeparture,
			Depart: videodist.DepartResult{Removed: true, Subscribers: []int{0}}},
		{Seq: 3, Type: videodist.ClusterUserLeave,
			Churn: videodist.ChurnResult{Changed: true, Streams: []int{1, 4}}},
		{Seq: 4, Type: videodist.ClusterUserJoin, Churn: videodist.ChurnResult{}},
		{Seq: 5, Type: videodist.ClusterResolve,
			Resolve: videodist.ResolveResult{Installed: true, OnlineValue: 1.5, OfflineValue: 2e-7}},
		{Seq: 6, Type: videodist.ClusterStreamArrival, CatalogID: "ch-1",
			Catalog: videodist.CatalogResult{Admitted: true, Subscribers: []int{3},
				Utility: 4.5, Refs: 2, SharedWith: []int{1}, CostScale: 0.25,
				FullCost: 10, CostCharged: 2.5}},
		{Seq: 7, Type: videodist.ClusterStreamDeparture, CatalogID: "ch-1",
			Catalog: videodist.CatalogResult{Removed: true, Refs: 0, Evicted: true}},
		{Seq: 8, Type: videodist.ClusterStreamArrival,
			Err: errors.New(`cluster: "quoted" & weird ünïcode error`)},
	}
	for _, res := range cases {
		line := appendResultLine(nil, res)
		var got streamclient.Result
		if err := json.Unmarshal(line, &got); err != nil {
			t.Fatalf("seq %d: emitted invalid JSON %q: %v", res.Seq, line, err)
		}
		// The stdlib reference: marshal the equivalent Result and decode.
		ref := streamclient.Result{Seq: res.Seq, Type: wireTypeName(res)}
		switch {
		case res.Err != nil:
			ref.Error = res.Err.Error()
		case res.CatalogID != "":
			v := res.Catalog
			ref.Catalog = &v
		case res.Type == videodist.ClusterStreamArrival:
			v := res.Offer
			ref.Offer = &v
		case res.Type == videodist.ClusterStreamDeparture:
			v := res.Depart
			ref.Depart = &v
		case res.Type == videodist.ClusterUserLeave, res.Type == videodist.ClusterUserJoin:
			v := res.Churn
			ref.Churn = &v
		case res.Type == videodist.ClusterResolve:
			v := res.Resolve
			ref.Resolve = &v
		}
		refJSON, err := json.Marshal(ref)
		if err != nil {
			t.Fatal(err)
		}
		var want streamclient.Result
		if err := json.Unmarshal(refJSON, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seq %d:\nhand-rolled %s\n-> %+v\nstdlib      %s\n-> %+v",
				res.Seq, line, got, refJSON, want)
		}
	}
}

// TestEventAppendJSONMatchesStdlib pins the client-side event encoder
// against the stdlib for every wire shape the client emits.
func TestEventAppendJSONMatchesStdlib(t *testing.T) {
	cases := []streamclient.Event{
		{Tenant: 0, Type: "offer", Stream: 3},
		{Tenant: 7, Type: "depart", Stream: 0},
		{Tenant: 1, Type: "leave", User: 4},
		{Tenant: 2, Type: "resolve", Install: true},
		{Tenant: 3, Type: "catalog-offer", CatalogID: "espn-hd"},
		{Tenant: 3, Type: "catalog-depart", CatalogID: `we"ird\id`},
	}
	for i, ev := range cases {
		line := ev.AppendJSON(nil)
		var got streamclient.Event
		if err := json.Unmarshal(line, &got); err != nil {
			t.Fatalf("case %d: invalid JSON %q: %v", i, line, err)
		}
		if !reflect.DeepEqual(got, ev) {
			t.Errorf("case %d: %q decodes to %+v, want %+v", i, line, got, ev)
		}
	}
}
