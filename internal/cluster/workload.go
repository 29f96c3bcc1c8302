package cluster

import (
	"fmt"
	"math/rand"

	"repro/internal/mmd"
)

// Workload is a deterministic synthetic event schedule for a cluster:
// every tenant replays its catalog in a seeded random order, with
// optional stream departures and gateway churn interleaved. Each tenant
// draws from its own RNG (derived from Seed and the tenant index), so
// the event sequence — and therefore every per-tenant result — is a
// pure function of the seed, independent of shard count, GOMAXPROCS,
// and scheduling.
type Workload struct {
	// Seed drives all randomness.
	Seed int64
	// Rounds replays each tenant's catalog this many times (default 1).
	// With departures enabled, later rounds re-admit freed streams.
	Rounds int
	// DepartEvery injects, after every k-th arrival, the departure of
	// the oldest still-carried offer (0 disables departures).
	DepartEvery int
	// ChurnEvery injects a gateway leave (or the matching rejoin) after
	// every k-th arrival (0 disables gateway churn).
	ChurnEvery int
}

// Events generates tenant ti's event sequence. Exposed so tests can
// replay the exact schedule a RunWorkload call submitted.
func (w Workload) Events(c *Cluster, ti int) []Event {
	return w.EventsForInstance(c.tenants[ti].Instance(), ti)
}

// EventsForInstance generates tenant ti's event sequence from the
// tenant's instance alone — no live cluster needed, so remote load
// drivers (mmdserve -stream) can derive the exact schedule a local
// RunWorkload would submit and pipe it over the wire.
func (w Workload) EventsForInstance(in *mmd.Instance, ti int) []Event {
	rounds := w.Rounds
	if rounds <= 0 {
		rounds = 1
	}
	rng := rand.New(rand.NewSource(w.Seed + int64(ti)*1_000_003 + 1))
	var evs []Event
	arrivals := 0
	var carried []int // offered streams, oldest first, for departures
	var away []int    // gateways currently away, oldest first
	for round := 0; round < rounds; round++ {
		for _, s := range rng.Perm(in.NumStreams()) {
			evs = append(evs, Event{Tenant: ti, Type: EventStreamArrival, Stream: s})
			arrivals++
			carried = append(carried, s)
			if w.DepartEvery > 0 && arrivals%w.DepartEvery == 0 {
				d := carried[0]
				carried = carried[1:]
				evs = append(evs, Event{Tenant: ti, Type: EventStreamDeparture, Stream: d})
			}
			if w.ChurnEvery > 0 && arrivals%w.ChurnEvery == 0 {
				if len(away) > 0 {
					u := away[0]
					away = away[1:]
					evs = append(evs, Event{Tenant: ti, Type: EventUserJoin, User: u})
				} else if in.NumUsers() > 0 {
					u := rng.Intn(in.NumUsers())
					away = append(away, u)
					evs = append(evs, Event{Tenant: ti, Type: EventUserLeave, User: u})
				}
			}
		}
	}
	return evs
}

// RunWorkload generates every tenant's schedule, submits the events
// round-robin across tenants fire-and-forget, then waits for all shards
// to drain via a snapshot barrier. It returns the quiesced fleet
// snapshot and the total number of events submitted.
//
// Results are observed only through the snapshot, so the replay needs
// no replies: post hands each shard its share of the schedule in
// windows with no reply, always blocking on a full shard queue
// (regardless of Options.Backpressure) so a deterministic schedule is
// never dropped.
func (c *Cluster) RunWorkload(w Workload) (*FleetSnapshot, int, error) {
	seqs := make([][]Event, len(c.tenants))
	for ti := range c.tenants {
		seqs[ti] = w.Events(c, ti)
	}
	var all []Event
	for i := 0; ; i++ {
		any := false
		for ti := range seqs {
			if i < len(seqs[ti]) {
				all = append(all, seqs[ti][i])
				any = true
			}
		}
		if !any {
			break
		}
	}
	if err := c.post(all...); err != nil {
		return nil, 0, fmt.Errorf("cluster: workload: %w", err)
	}
	fs, err := c.Snapshot()
	if err != nil {
		return nil, len(all), err
	}
	return fs, len(all), nil
}

// postWindow is the number of events post hands a shard per window: a
// window amortizes one queue crossing over its events, and a bound
// keeps every shard fed while the others' windows are being cut.
const postWindow = 64

// post enqueues events fire-and-forget: each shard receives its share,
// in submission order, as windows of up to postWindow events with no
// reply, so per-tenant order is the order given. A failed re-solve
// latches as its shard's error (surfaced by Snapshot and Close). Sends
// block when a shard queue is full.
func (c *Cluster) post(evs ...Event) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return ErrClosed
	}
	perShard := make([][]Event, len(c.shards))
	for _, ev := range evs {
		if ev.Tenant < 0 || ev.Tenant >= len(c.tenants) {
			return fmt.Errorf("%w: tenant %d out of range [0,%d)", ErrUnknownTenant, ev.Tenant, len(c.tenants))
		}
		s := c.shardOf[ev.Tenant]
		perShard[s] = append(perShard[s], ev)
	}
	for off := 0; ; off += postWindow {
		sent := false
		for s, q := range perShard {
			if off < len(q) {
				c.shards[s].ch <- message{win: window{evs: q[off:min(off+postWindow, len(q))]}}
				sent = true
			}
		}
		if !sent {
			return nil
		}
	}
}
