package cluster

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/generator"
	"repro/internal/headend"
)

// TestClusterLedgerMatchesRescanReference is the fleet-level (E12-shaped)
// differential determinism check: a sharded cluster running the default
// ledger-based guarded online policy — through the full workload (batched
// arrivals, departures, gateway churn) plus an installing re-solve per
// tenant — must produce per-tenant snapshots bit-identical to a serial
// replay of the exact same event schedule on tenants running the retained
// pre-ledger rescan implementation (NewRescanOnlinePolicy), at every
// shard count.
// TestClusterSharedOriginLedgerMatchesRescanReference extends the
// differential to the shared catalog (ROADMAP nuance (d)): with the
// SharedOrigin cost model pricing later admissions at the replication
// fraction, the ledger guard (FitsDeltaScaled) and the retained rescan
// reference guard (CheckFeasibleScaled over recorded charge scales)
// must admit bit-identically — per-tenant snapshots and the registry's
// accounting equal at every shard count, not just under Isolated.
func TestClusterSharedOriginLedgerMatchesRescanReference(t *testing.T) {
	const tenants, channels, gateways = 6, 20, 6
	steps := catalogScheduleFor(tenants, channels, 880)
	model := catalog.SharedOrigin{ReplicationFraction: 0.25}
	ctx := context.Background()

	build := func(shards int, rescan bool) *Cluster {
		cfgs := make([]TenantConfig, tenants)
		for i := range cfgs {
			in, err := generator.CableTV{
				Channels: channels, Gateways: gateways,
				Seed: 880 + int64(i), EgressFraction: 0.25,
			}.Generate()
			if err != nil {
				t.Fatal(err)
			}
			cfgs[i] = TenantConfig{Instance: in}
			if rescan {
				pol, err := headend.NewRescanOnlinePolicy(in)
				if err != nil {
					t.Fatal(err)
				}
				cfgs[i].Policy = pol
			}
		}
		bindings := catalog.IdentityBindings(tenants, channels, func(s int) catalog.ID {
			return catalog.ID(fmt.Sprintf("s-%03d", s))
		})
		c, err := New(cfgs, Options{
			Shards:  shards,
			Catalog: &CatalogOptions{Streams: bindings, CostModel: model},
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	drive := func(c *Cluster) (tenantsSnap []headend.TenantSnapshot, catalogTable string) {
		for _, st := range steps {
			id := catalog.ID(fmt.Sprintf("s-%03d", st.stream))
			if st.depart {
				if _, err := c.DepartCatalogStream(ctx, st.tenant, id); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if _, err := c.OfferCatalogStream(ctx, st.tenant, id); err != nil {
				t.Fatal(err)
			}
		}
		fs, err := c.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return fs.Tenants, fs.Catalog.Render()
	}

	ref := build(1, true)
	refTenants, refCatalog := drive(ref)
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	for _, ts := range refTenants {
		if ts.StreamsAdmitted == 0 {
			t.Fatal("reference admitted nothing; schedule cannot exercise the scaled guard")
		}
	}

	for _, shards := range []int{1, 2, 4, 8} {
		c := build(shards, false)
		gotTenants, gotCatalog := drive(c)
		for i := range gotTenants {
			// The policy name differs only in implementation, never in
			// behavior; normalize it before the bit-identity check.
			g, r := gotTenants[i], refTenants[i]
			g.Policy, r.Policy = "", ""
			if g != r {
				t.Errorf("shards=%d tenant %d diverged from scaled rescan reference:\nledger: %+v\nrescan: %+v",
					shards, i, g, r)
			}
		}
		if gotCatalog != refCatalog {
			t.Errorf("shards=%d catalog accounting diverged:\n--- ledger\n%s\n--- rescan\n%s",
				shards, gotCatalog, refCatalog)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestClusterLedgerMatchesRescanReference(t *testing.T) {
	const tenants = 6
	w := Workload{Seed: 120, Rounds: 2, DepartEvery: 3, ChurnEvery: 5}
	instance := func(i int) *generator.CableTV {
		return &generator.CableTV{
			Channels: 20, Gateways: 6, Seed: 120 + int64(i), EgressFraction: 0.25,
		}
	}

	// Reference: serial replay on rescan-guarded tenants. The schedule is
	// a pure function of the seed and the instance, so it can be taken
	// from any cluster; a single-shard one is built just to derive it.
	var refChurn, refInstalled []headend.TenantSnapshot
	{
		cfgs := make([]TenantConfig, tenants)
		for i := range cfgs {
			in, err := instance(i).Generate()
			if err != nil {
				t.Fatal(err)
			}
			cfgs[i] = TenantConfig{Instance: in}
		}
		c, err := New(cfgs, Options{Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for i := range cfgs {
			in, err := instance(i).Generate()
			if err != nil {
				t.Fatal(err)
			}
			pol, err := headend.NewRescanOnlinePolicy(in)
			if err != nil {
				t.Fatal(err)
			}
			ten, err := headend.NewTenant(in, pol)
			if err != nil {
				t.Fatal(err)
			}
			for _, ev := range w.Events(c, i) {
				switch ev.Type {
				case EventStreamArrival:
					ten.OfferStream(ev.Stream)
				case EventStreamDeparture:
					ten.DepartStream(ev.Stream)
				case EventUserLeave:
					ten.UserLeave(ev.User)
				case EventUserJoin:
					ten.UserJoin(ev.User)
				}
			}
			refChurn = append(refChurn, ten.Snapshot())
			if _, err := ten.Resolve(core.Options{}, true); err != nil {
				t.Fatal(err)
			}
			refInstalled = append(refInstalled, ten.Snapshot())
		}
	}

	ctx := context.Background()
	for _, shards := range []int{1, 2, 4, 8} {
		cfgs := make([]TenantConfig, tenants)
		for i := range cfgs {
			in, err := instance(i).Generate()
			if err != nil {
				t.Fatal(err)
			}
			cfgs[i] = TenantConfig{Instance: in}
		}
		c, err := New(cfgs, Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		churnFS, _, err := c.RunWorkload(w)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tenants; i++ {
			if churnFS.Tenants[i] != refChurn[i] {
				t.Errorf("shards=%d tenant %d churn snapshot diverged from rescan reference:\ncluster: %+v\nref:     %+v",
					shards, i, churnFS.Tenants[i], refChurn[i])
			}
		}
		for i := 0; i < tenants; i++ {
			if _, err := c.Resolve(ctx, i, ResolveOptions{Install: true}); err != nil {
				t.Fatal(err)
			}
		}
		installedFS, err := c.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tenants; i++ {
			if installedFS.Tenants[i] != refInstalled[i] {
				t.Errorf("shards=%d tenant %d installed snapshot diverged from rescan reference:\ncluster: %+v\nref:     %+v",
					shards, i, installedFS.Tenants[i], refInstalled[i])
			}
		}
		if !installedFS.AllFeasible {
			t.Errorf("shards=%d: fleet infeasible after install", shards)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
