package cluster

import (
	"context"
	"errors"
	"sync"
	"testing"
)

// dispatch drives one scheduled event through the typed session API,
// returning the transport error (typed rejections are not errors).
func dispatch(ctx context.Context, c *Cluster, ev Event) error {
	var err error
	switch ev.Type {
	case EventStreamArrival:
		_, err = c.OfferStream(ctx, ev.Tenant, ev.Stream)
	case EventStreamDeparture:
		_, err = c.DepartStream(ctx, ev.Tenant, ev.Stream)
	case EventUserLeave:
		_, err = c.UserLeave(ctx, ev.Tenant, ev.User)
	case EventUserJoin:
		_, err = c.UserJoin(ctx, ev.Tenant, ev.User)
	case EventResolve:
		_, err = c.Resolve(ctx, ev.Tenant, ResolveOptions{Install: ev.Install})
	}
	return err
}

// TestClusterConcurrentInjection hammers a >=4-shard cluster with
// session calls from many goroutines at once. Run under -race (the CI
// does) this proves the shard-pinning discipline: every tenant mutation
// happens on exactly one worker goroutine, with no shared mutable
// state between shards. With concurrent submitters the interleaving —
// and so per-tenant admission outcomes — is not deterministic; the
// test checks the invariants that must survive any interleaving:
// feasibility everywhere, conservation of event counts, and tenant
// isolation.
func TestClusterConcurrentInjection(t *testing.T) {
	const tenants, injectors, perInjector = 8, 6, 3
	ctx := context.Background()
	cfgs := tenantInstances(t, tenants, 15, 5, 1300)
	c, err := New(cfgs, Options{Shards: 4, ResolveEvery: 50})
	if err != nil {
		t.Fatal(err)
	}
	if c.NumShards() != 4 {
		t.Fatalf("shards = %d, want 4", c.NumShards())
	}

	var wg sync.WaitGroup
	w := Workload{Rounds: perInjector, DepartEvery: 3, ChurnEvery: 5}
	for inj := 0; inj < injectors; inj++ {
		inj := inj
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ti := 0; ti < tenants; ti++ {
				ws := w
				ws.Seed = int64(1 + inj*tenants + ti)
				for _, ev := range ws.Events(c, ti) {
					ev.Tenant = ti
					if err := dispatch(ctx, c, ev); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	// A concurrent snapshot reader: barriers must interleave safely
	// with live request/response traffic.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if _, err := c.Snapshot(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	fs, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if !fs.AllFeasible {
		t.Fatal("concurrent injection broke feasibility")
	}
	wantArrivals := injectors * perInjector * 15 * tenants
	if fs.Offered != wantArrivals {
		t.Fatalf("offered = %d, want %d (events lost or duplicated)", fs.Offered, wantArrivals)
	}
	for i, ts := range fs.Tenants {
		if ts.StreamsOffered != wantArrivals/tenants {
			t.Fatalf("tenant %d offered = %d, want %d", i, ts.StreamsOffered, wantArrivals/tenants)
		}
	}
	shardEvents := 0
	for _, st := range fs.ShardStats {
		shardEvents += st.Events
	}
	if shardEvents < wantArrivals {
		t.Fatalf("shards processed %d events, want >= %d", shardEvents, wantArrivals)
	}
}

// TestClusterConcurrentClose races session calls against Close. Every
// call must either be applied (its result delivered) or fail cleanly
// with ErrClosed — never panic on a closed channel, hang on an
// undelivered completion, or slip in after shutdown. Run under -race.
func TestClusterConcurrentClose(t *testing.T) {
	const goroutines = 8
	ctx := context.Background()
	for round := 0; round < 4; round++ {
		cfgs := tenantInstances(t, 4, 10, 4, 1400+int64(round))
		c, err := New(cfgs, Options{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for s := 0; s < 10; s++ {
					_, err := c.OfferStream(ctx, g%4, s)
					if err != nil && !errors.Is(err, ErrClosed) {
						t.Errorf("offer during close: %v", err)
						return
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if err := c.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		}()
		close(start)
		wg.Wait()
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
