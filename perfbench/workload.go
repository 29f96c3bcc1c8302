package main

import (
	"fmt"
	"math/rand"
	"slices"

	videodist "repro"
	"repro/internal/cluster"
	"repro/internal/generator"
	"repro/streamclient"
)

// spec fixes one workload's fleet shape and traffic. Every number here
// is part of the benchmark's definition: shard counts are explicit
// (never derived from GOMAXPROCS) so a run on another host drives the
// same layout.
type spec struct {
	name                        string
	tenants, channels, gateways int
	egress                      float64 // CableTV EgressFraction
	shards                      int     // shard workers per cluster
	nodes                       int     // fleet nodes behind a router (0: one node, no router)
	catalog                     bool    // SharedOrigin catalog on every channel
	wal                         bool    // WAL with group commit
	session                     bool    // in-process acked session calls, no HTTP
	// rate is the open-loop arrival rate in events per second: a
	// quarter of the workload's closed-loop events_per_s on the 2-vCPU
	// host the benchmark was built on, rounded (README.md has the
	// measured figures). 0 means the workload has no open-loop phase
	// (its latency is timed per closed-loop call).
	rate float64
}

// specs are the benchmark's workloads, in BENCHMARK.json order.
var specs = []spec{
	{name: "ingest", tenants: 64, channels: 120, gateways: 40, egress: 0.25, shards: 2, rate: 100000},
	{name: "flash-durable", tenants: 64, channels: 120, gateways: 40, egress: 0.8, shards: 2, catalog: true, wal: true, rate: 40000},
	{name: "churn-resolve", tenants: 128, channels: 120, gateways: 40, egress: 0.25, shards: 2, session: true},
}

// fleetSpec is the stack behind the traced run's fleet section: a
// catalog service, two nodes and the router, carrying the flash
// schedule. It is not a workload of its own (its open-loop latency is
// not steady on a 2-vCPU host), so it has no open-loop rate.
var fleetSpec = spec{name: "fleet", tenants: 16, channels: 120, gateways: 40, egress: 0.8, shards: 1, nodes: 2, catalog: true}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// instances generates the tenants' CableTV instances for a seed.
func (s spec) instances(seed int64) ([]*videodist.Instance, error) {
	out := make([]*videodist.Instance, s.tenants)
	for i := range out {
		in, err := videodist.NewCableTV(videodist.CableTV{
			Channels: s.channels, Gateways: s.gateways,
			Seed: seed*1000 + int64(i), EgressFraction: s.egress,
		})
		if err != nil {
			return nil, fmt.Errorf("tenant %d instance: %w", i, err)
		}
		out[i] = in
	}
	return out, nil
}

// channelID is the catalog identity of channel ch, the generator's and
// catalog.IdentityBindings' shared convention.
func channelID(ch int) videodist.CatalogID { return videodist.CatalogID(fmt.Sprintf("ch-%03d", ch)) }

// resolveEvery and snapshotEvery pace churn-resolve's periodic calls.
// One resolve per 64 calls keeps the offline pipeline the dominant cost
// (a 120x40 Solve is ~1000x a session call) while leaving enough plain
// calls that the median still times the session path.
const (
	resolveEvery  = 64
	snapshotEvery = 256
	churnCalls    = 16384
)

// snapshotType marks a churn-resolve step that takes a fleet Snapshot
// instead of sending an event. It never reaches the wire.
const snapshotType = "snapshot"

// pass builds one pass of the workload's schedule: the unit the
// benchmark repeats. Stream-workload passes leave the fleet at rest
// (every offered stream departs, every gateway rejoins), so catalog
// references drain to zero at every pass boundary.
func (s spec) pass(seed int64, ins []*videodist.Instance) ([]streamclient.Event, error) {
	switch {
	case s.session:
		return churnPass(s, seed), nil
	case s.catalog:
		return flashPass(s, seed)
	default:
		return ingestPass(s, seed, ins), nil
	}
}

// ingestPass is every tenant's ClusterWorkload schedule (one round of
// the catalog in seeded order, departing the oldest carried stream
// after every third arrival), followed by the departure of everything
// still carried, interleaved round-robin across tenants.
func ingestPass(s spec, seed int64, ins []*videodist.Instance) []streamclient.Event {
	w := videodist.ClusterWorkload{Seed: seed, Rounds: 1, DepartEvery: 3}
	seqs := make([][]streamclient.Event, len(ins))
	for ti, in := range ins {
		var carried []int
		for _, ev := range w.EventsForInstance(in, ti) {
			switch ev.Type {
			case cluster.EventStreamArrival:
				carried = append(carried, ev.Stream)
				seqs[ti] = append(seqs[ti], streamclient.Event{Tenant: ti, Type: "offer", Stream: ev.Stream})
			case cluster.EventStreamDeparture:
				if i := slices.Index(carried, ev.Stream); i >= 0 {
					carried = slices.Delete(carried, i, i+1)
				}
				seqs[ti] = append(seqs[ti], streamclient.Event{Tenant: ti, Type: "depart", Stream: ev.Stream})
			}
		}
		for _, st := range carried {
			seqs[ti] = append(seqs[ti], streamclient.Event{Tenant: ti, Type: "depart", Stream: st})
		}
	}
	var out []streamclient.Event
	for i := 0; ; i++ {
		any := false
		for ti := range seqs {
			if i < len(seqs[ti]) {
				out = append(out, seqs[ti][i])
				any = true
			}
		}
		if !any {
			return out
		}
	}
}

// flashPass merges a Zipf flash-crowd schedule with diurnal stream and
// gateway churn — both generators drain themselves, so the pass ends
// with zero catalog references.
func flashPass(s spec, seed int64) ([]streamclient.Event, error) {
	zipf := generator.ZipfFlashCrowd{
		Tenants: s.tenants, Channels: s.channels, Gateways: s.gateways,
		Seed: seed, Rounds: 4,
	}
	background, err := zipf.Generate()
	if err != nil {
		return nil, err
	}
	churn, err := generator.Diurnal{
		Tenants: s.tenants, Channels: s.channels, Gateways: s.gateways,
		Seed: seed + 1, Days: 1, HourStep: 0.25, ExcludeChannel: zipf.CrowdChannel,
	}.Generate()
	if err != nil {
		return nil, err
	}
	merged := generator.Merge(background, churn)
	out := make([]streamclient.Event, len(merged))
	for i, ev := range merged {
		out[i] = streamclient.Event{
			Tenant: ev.Tenant, Type: string(ev.Type), Stream: ev.Stream,
			User: ev.User, CatalogID: ev.CatalogID,
		}
	}
	return out, nil
}

// churnPass is a seeded sequence of session calls across tenants:
// offers of streams the tenant was not offered since their last
// departure, departures of offered streams, gateway leaves and joins,
// an installing resolve every resolveEvery calls and a fleet snapshot
// every snapshotEvery.
func churnPass(s spec, seed int64) []streamclient.Event {
	rng := rand.New(rand.NewSource(seed))
	offered := make([][]int, s.tenants) // per tenant, in offer order
	out := make([]streamclient.Event, churnCalls)
	for i := range out {
		t := rng.Intn(s.tenants)
		ev := streamclient.Event{Tenant: t}
		switch r := rng.Intn(10); {
		case i%snapshotEvery == snapshotEvery-1:
			ev.Type = snapshotType
		case i%resolveEvery == resolveEvery-1:
			ev.Type, ev.Install = "resolve", true
		case r < 5 && len(offered[t]) < s.channels:
			st := rng.Intn(s.channels)
			for slices.Contains(offered[t], st) {
				st = (st + 1) % s.channels
			}
			offered[t] = append(offered[t], st)
			ev.Type, ev.Stream = "offer", st
		case r < 8 && len(offered[t]) > 0:
			k := rng.Intn(len(offered[t]))
			ev.Type, ev.Stream = "depart", offered[t][k]
			offered[t] = slices.Delete(offered[t], k, k+1)
		case r < 9:
			ev.Type, ev.User = "leave", rng.Intn(s.gateways)
		default:
			ev.Type, ev.User = "join", rng.Intn(s.gateways)
		}
		out[i] = ev
	}
	return out
}

// offeredUtility is the utility the pass's offers could add at most:
// for each offered stream, the sum of every user's utility for it.
// utility divides what the fleet admitted by this.
func offeredUtility(pass []streamclient.Event, ins []*videodist.Instance) float64 {
	total := 0.0
	for _, ev := range pass {
		switch ev.Type {
		case "offer":
			total += ins[ev.Tenant].StreamUtility(ev.Stream)
		case "catalog-offer":
			var ch int
			if _, err := fmt.Sscanf(ev.CatalogID, "ch-%d", &ch); err == nil {
				total += ins[ev.Tenant].StreamUtility(ch)
			}
		}
	}
	return total
}
