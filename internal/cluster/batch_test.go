package cluster

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/catalog"
	"repro/internal/generator"
)

func batchTestClusters(t *testing.T) (single, batched *Cluster) {
	t.Helper()
	build := func() *Cluster {
		cfgs := make([]TenantConfig, 3)
		for i := range cfgs {
			in, err := generator.CableTV{
				Channels: 15, Gateways: 5, Seed: 610 + int64(i), EgressFraction: 0.3,
			}.Generate()
			if err != nil {
				t.Fatal(err)
			}
			cfgs[i] = TenantConfig{Instance: in}
		}
		c, err := New(cfgs, Options{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	return build(), build()
}

// batchTestEvents is a mixed single-tenant schedule: arrival runs
// interrupted by departures and gateway churn, ending in a resolve.
func batchTestEvents() []Event {
	var evs []Event
	for s := 0; s < 10; s++ {
		evs = append(evs, Event{Type: EventStreamArrival, Stream: s})
	}
	evs = append(evs,
		Event{Type: EventStreamDeparture, Stream: 3},
		Event{Type: EventUserLeave, User: 1},
	)
	for s := 10; s < 15; s++ {
		evs = append(evs, Event{Type: EventStreamArrival, Stream: s})
	}
	evs = append(evs,
		Event{Type: EventUserJoin, User: 1},
		Event{Type: EventResolve},
	)
	return evs
}

// TestApplyBatchMatchesSingleCalls is the batching parity check: one
// ApplyBatch call must produce exactly the per-event results and final
// per-tenant state that the same schedule produces as N single session
// calls, while crossing the shard queue once.
func TestApplyBatchMatchesSingleCalls(t *testing.T) {
	singleC, batchC := batchTestClusters(t)
	ctx := context.Background()
	evs := batchTestEvents()

	for ti := 0; ti < singleC.NumTenants(); ti++ {
		var want []EventResult
		for _, ev := range evs {
			switch ev.Type {
			case EventStreamArrival:
				res, err := singleC.OfferStream(ctx, ti, ev.Stream)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, EventResult{Type: ev.Type, Offer: res})
			case EventStreamDeparture:
				res, err := singleC.DepartStream(ctx, ti, ev.Stream)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, EventResult{Type: ev.Type, Depart: res})
			case EventUserLeave:
				res, err := singleC.UserLeave(ctx, ti, ev.User)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, EventResult{Type: ev.Type, Churn: res})
			case EventUserJoin:
				res, err := singleC.UserJoin(ctx, ti, ev.User)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, EventResult{Type: ev.Type, Churn: res})
			case EventResolve:
				res, err := singleC.Resolve(ctx, ti, ResolveOptions{})
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, EventResult{Type: ev.Type, Resolve: res})
			}
		}
		got, err := batchC.ApplyBatch(ctx, ti, evs)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("tenant %d: %d results, want %d", ti, len(got), len(want))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("tenant %d event %d: batch %+v vs single %+v", ti, i, got[i], want[i])
			}
		}
	}

	sfs, err := singleC.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	bfs, err := batchC.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := bfs.RenderTenants(), sfs.RenderTenants(); got != want {
		t.Fatalf("tenant tables diverge:\n--- batch\n%s\n--- single\n%s", got, want)
	}
}

// TestApplyBatchValidation pins the argument and sentinel behavior.
func TestApplyBatchValidation(t *testing.T) {
	c, _ := batchTestClusters(t)
	ctx := context.Background()

	if _, err := c.ApplyBatch(ctx, 99, batchTestEvents()); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("unknown tenant: %v", err)
	}
	if _, err := c.ApplyBatch(ctx, 0, []Event{{Type: EventType(99)}}); err == nil {
		t.Fatal("unknown event type accepted")
	}
	out, err := c.ApplyBatch(ctx, 0, nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty batch = %v, %v", out, err)
	}
	// The Tenant field of batch events is overridden by the call's
	// tenant: a stray value cannot cross tenants.
	res, err := c.ApplyBatch(ctx, 1, []Event{{Tenant: 0, Type: EventStreamArrival, Stream: 0}})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if fs.Tenants[0].StreamsOffered != 0 || fs.Tenants[1].StreamsOffered != 1 {
		t.Fatalf("batch tenant override failed: %+v (res %+v)", fs.Tenants, res)
	}

	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := c.ApplyBatch(canceled, 0, batchTestEvents()); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled ctx: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ApplyBatch(ctx, 0, batchTestEvents()); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed: %v", err)
	}
	// An empty batch honors the taxonomy too — no silent success on a
	// closed cluster.
	if _, err := c.ApplyBatch(ctx, 0, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed empty batch: %v", err)
	}
}

// TestApplyBatchCatalogMatchesSessions is the batched-catalog-admission
// acceptance check: catalog events submitted through ApplyBatch — one
// AcquireBatch round trip per batch, one SettleBatch flush per batch —
// must produce per-event CatalogResults and fleet snapshots
// bit-identical to the same schedule driven through the per-operation
// catalog sessions, at every shard count and under both cost models.
//
// The chunker starts a new batch whenever a CatalogID repeats within
// the current one: a batch prices all of its catalog arrivals against
// the pre-batch sharing state (the pipelined-acquire semantics), so
// same-ID depart-then-reoffer inside one batch would legitimately see
// different sharing state than the settled-one-by-one reference.
func TestApplyBatchCatalogMatchesSessions(t *testing.T) {
	const tenants, channels = 4, 12
	steps := catalogScheduleFor(tenants, channels, 930)
	ctx := context.Background()
	for _, model := range []catalog.CostModel{
		catalog.Isolated{},
		catalog.SharedOrigin{ReplicationFraction: 0.25},
	} {
		for _, shards := range []int{1, 2, 4, 8} {
			sessions := catalogTestFleet(t, tenants, channels, 5, 930, 0.3, shards, model)
			batched := catalogTestFleet(t, tenants, channels, 5, 930, 0.3, shards, model)

			// Chunk the schedule: batch boundaries at tenant changes and
			// at same-ID repeats within a batch.
			type chunk struct {
				tenant int
				evs    []Event
			}
			var chunks []chunk
			seen := map[catalog.ID]bool{}
			for _, st := range steps {
				id := catalog.ID(fmt.Sprintf("s-%03d", st.stream))
				typ := EventStreamArrival
				if st.depart {
					typ = EventStreamDeparture
				}
				if len(chunks) == 0 || chunks[len(chunks)-1].tenant != st.tenant || seen[id] {
					chunks = append(chunks, chunk{tenant: st.tenant})
					clear(seen)
				}
				seen[id] = true
				last := &chunks[len(chunks)-1]
				last.evs = append(last.evs, Event{Type: typ, CatalogID: id})
			}

			var want []CatalogResult
			for _, st := range steps {
				id := catalog.ID(fmt.Sprintf("s-%03d", st.stream))
				var res CatalogResult
				var err error
				if st.depart {
					res, err = sessions.DepartCatalogStream(ctx, st.tenant, id)
				} else {
					res, err = sessions.OfferCatalogStream(ctx, st.tenant, id)
				}
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, res)
			}

			var got []CatalogResult
			for _, ch := range chunks {
				out, err := batched.ApplyBatch(ctx, ch.tenant, ch.evs)
				if err != nil {
					t.Fatal(err)
				}
				for i, res := range out {
					if res.Err != nil {
						t.Fatalf("batch event %d: %v", i, res.Err)
					}
					got = append(got, res.Catalog)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%s/%d shards: %d batch results, want %d", model.Name(), shards, len(got), len(want))
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("%s/%d shards: step %d: batch %+v vs session %+v",
						model.Name(), shards, i, got[i], want[i])
				}
			}

			sfs, err := sessions.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			bfs, err := batched.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			// Tenant tables and the catalog section must be bit-identical.
			if gotR, wantR := bfs.RenderTenants(), sfs.RenderTenants(); gotR != wantR {
				t.Fatalf("%s/%d shards: batched tenant tables diverged:\n--- batch\n%s\n--- sessions\n%s",
					model.Name(), shards, gotR, wantR)
			}
			if gotR, wantR := bfs.Catalog.Render(), sfs.Catalog.Render(); gotR != wantR {
				t.Fatalf("%s/%d shards: batched catalog state diverged:\n--- batch\n%s\n--- sessions\n%s",
					model.Name(), shards, gotR, wantR)
			}
		}
	}
}
