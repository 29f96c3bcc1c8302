package main

import (
	"fmt"

	videodist "repro"
	"repro/internal/core"
	"repro/internal/headend"
	"repro/streamclient"
)

// The utility gate. Per-tenant results depend only on each tenant's
// own event order, so workloads without a catalog have an
// order-determined answer: an in-process replay of the same passes
// must add exactly the same utility, event by event. Sums are taken in
// submission order on both sides, so they agree bit for bit.

// headendReference replays passes of a workload without a catalog on
// bare headend tenants (the cluster's default guarded online policy)
// and returns each pass's utility sum.
func headendReference(ins []*videodist.Instance, pass []streamclient.Event, passes int) ([]float64, error) {
	tenants := make([]*headend.Tenant, len(ins))
	for i, in := range ins {
		pol, err := headend.NewPolicyByName(in, "online")
		if err != nil {
			return nil, err
		}
		if tenants[i], err = headend.NewTenant(in, pol); err != nil {
			return nil, err
		}
	}
	out := make([]float64, passes)
	for p := range out {
		for _, ev := range pass {
			t := tenants[ev.Tenant]
			switch ev.Type {
			case "offer":
				// Summed per event first, as the cluster reports it.
				util := 0.0
				for _, u := range t.OfferStream(ev.Stream) {
					util += ins[ev.Tenant].Users[u].Utility[ev.Stream]
				}
				out[p] += util
			case "depart":
				t.DepartStream(ev.Stream)
			case "leave":
				t.UserLeave(ev.User)
			case "join":
				t.UserJoin(ev.User)
			case "resolve":
				if _, err := t.Resolve(core.Options{}, ev.Install); err != nil {
					return nil, err
				}
			case snapshotType:
			default:
				return nil, fmt.Errorf("reference: unexpected event type %q", ev.Type)
			}
		}
	}
	return out, nil
}

// checkUtility compares measured per-pass utility sums with the
// reference's.
func checkUtility(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("utility gate: %d passes measured, %d replayed", len(got), len(want))
	}
	for p := range got {
		if got[p] != want[p] {
			return fmt.Errorf("utility gate: pass %d added utility %v, in-process reference %v", p, got[p], want[p])
		}
	}
	return nil
}
