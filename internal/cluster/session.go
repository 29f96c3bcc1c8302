package cluster

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/catalog"
)

// Serving API v2: the typed, context-aware request/response surface.
//
// Each per-operation method routes one event to the owning shard as a
// pooled window of one, blocks until the shard worker has applied the
// event, and returns a typed result. The sentinel
// errors below form the error taxonomy; every failure returned by the
// session methods matches exactly one of them under errors.Is (solver
// failures during a resolve are the exception — they are returned
// verbatim, wrapped with the tenant index).
//
// Backpressure is configurable per cluster (Options.Backpressure):
// BackpressureBlock parks the caller until the shard queue has room or
// ctx is done; BackpressureReject fails fast with ErrQueueFull.

// Sentinel errors returned by the serving API. Match with errors.Is;
// returned errors may wrap additional detail (tenant index, ctx cause).
var (
	// ErrUnknownTenant reports a tenant index outside [0, NumTenants).
	ErrUnknownTenant = errors.New("cluster: unknown tenant")
	// ErrQueueFull reports a full shard queue under BackpressureReject.
	ErrQueueFull = errors.New("cluster: shard queue full")
	// ErrClosed reports an operation on a closed cluster.
	ErrClosed = errors.New("cluster: closed")
	// ErrCanceled reports a context canceled or expired while enqueuing
	// or waiting for a result. It wraps ctx.Err(), so errors.Is also
	// matches context.Canceled / context.DeadlineExceeded.
	ErrCanceled = errors.New("cluster: canceled")
	// ErrNotDurable reports that an event was applied but its group
	// commit failed: the log record backing the result never reached
	// the disk, so the acknowledgement would have been a lie. Under
	// SyncBatch every result in the failed group (and every later one
	// — the appender error is latched) carries this error; after a
	// restart, recovery resumes from the last durable watermark and
	// the event may or may not survive. Callers treat it like a crash:
	// re-submit after recovery and let seq-level dedup sort it out.
	ErrNotDurable = errors.New("cluster: event not durable")
)

// Backpressure selects what happens when a shard queue is full.
type Backpressure int

const (
	// BackpressureBlock (the default) blocks the caller until the shard
	// queue has room or its context is done.
	BackpressureBlock Backpressure = iota
	// BackpressureReject fails fast with ErrQueueFull.
	BackpressureReject
)

// OfferResult is the outcome of offering a stream to a tenant.
type OfferResult struct {
	// Accepted reports whether at least one user now receives the
	// stream. Offers of out-of-range or already-carried streams are
	// rejections, not errors.
	Accepted bool
	// Subscribers are the users that now receive the stream, in the
	// order the policy admitted them.
	Subscribers []int
	// Utility is the utility added by this admission.
	Utility float64
}

// DepartResult is the outcome of departing a stream.
type DepartResult struct {
	// Removed reports whether the stream was actually carried.
	Removed bool
	// Subscribers are the users that were receiving the stream.
	Subscribers []int
}

// ChurnResult is the outcome of a gateway leave or join.
type ChurnResult struct {
	// Changed reports whether the event changed the gateway's state
	// (false for leave-while-away, join-while-online, out of range).
	Changed bool
	// Streams are the subscriptions torn down by a leave, in increasing
	// index order (empty for joins — a rejoining gateway does not
	// recover old subscriptions).
	Streams []int
}

// ResolveResult is the outcome of an offline re-solve.
type ResolveResult struct {
	// Installed reports whether the offline assignment replaced the
	// running one (requires ResolveOptions.Install and an offline value
	// at least as good as the online one).
	Installed bool
	// OnlineValue is the running assignment's utility at resolve time;
	// OfflineValue is the fresh offline pipeline's value.
	OnlineValue, OfflineValue float64
}

// ResolveOptions configures Cluster.Resolve.
type ResolveOptions struct {
	// Install replaces the tenant's running assignment and policy state
	// with the offline solution (make-before-break) when the offline
	// value is at least the online one; false is monitoring only.
	Install bool
}

// OfferStream offers stream s to tenant t's admission policy and
// returns the typed decision. A rejection (out-of-range or
// already-carried stream, or a policy "no") is a successful call with
// Accepted false.
func (c *Cluster) OfferStream(ctx context.Context, tenant, stream int) (OfferResult, error) {
	res, err := c.call(ctx, Event{Tenant: tenant, Type: EventStreamArrival, Stream: stream}, nil)
	return res.offer, err
}

// DepartStream removes a carried stream from tenant t, releasing its
// subscribers and (for departure-aware policies) the policy's
// resources.
func (c *Cluster) DepartStream(ctx context.Context, tenant, stream int) (DepartResult, error) {
	res, err := c.call(ctx, Event{Tenant: tenant, Type: EventStreamDeparture, Stream: stream}, nil)
	return res.depart, err
}

// UserLeave takes gateway u of tenant t offline, tearing down its
// subscriptions.
func (c *Cluster) UserLeave(ctx context.Context, tenant, user int) (ChurnResult, error) {
	res, err := c.call(ctx, Event{Tenant: tenant, Type: EventUserLeave, User: user}, nil)
	return res.churn, err
}

// UserJoin brings gateway u of tenant t back online.
func (c *Cluster) UserJoin(ctx context.Context, tenant, user int) (ChurnResult, error) {
	res, err := c.call(ctx, Event{Tenant: tenant, Type: EventUserJoin, User: user}, nil)
	return res.churn, err
}

// Resolve re-runs the offline Theorem 1.1 pipeline for tenant t on its
// shard worker. With opts.Install the offline assignment is installed
// via a make-before-break policy-state rebuild (never downgrading the
// running lineup); without it the re-solve only measures drift. When a
// catalog is configured, the worker releases the fleet references of
// catalog streams the installed lineup dropped before replying.
func (c *Cluster) Resolve(ctx context.Context, tenant int, opts ResolveOptions) (ResolveResult, error) {
	res, err := c.call(ctx, Event{Tenant: tenant, Type: EventResolve, Install: opts.Install}, nil)
	return res.resolve, err
}

// result is the worker's typed outcome of one event, written into the
// window's result slot; exactly the field for the event's type is
// populated. refs and evicted report the fleet-reference state the
// worker settled for a catalog-managed event (Event.CatalogID set).
type result struct {
	offer   OfferResult
	depart  DepartResult
	churn   ChurnResult
	resolve ResolveResult
	refs    int
	evicted bool
	err     error
}

// single is a window of one with its own storage: pooled for the
// session calls, embedded in every StreamConn pending entry, so neither
// path allocates per event. tk receives the ticket of a catalog offer.
type single struct {
	ev   [1]Event
	out  [1]result
	tk   [1]catalog.Ticket
	done chan struct{}
}

func (s *single) window() window {
	return window{evs: s.ev[:], out: s.out[:], done: s.done}
}

// getSingle returns a pooled window of one.
func (c *Cluster) getSingle() *single {
	if s, ok := c.singlePool.Get().(*single); ok {
		return s
	}
	return &single{done: make(chan struct{}, 1)}
}

// putSingle recycles a window of one whose reply was drained (or that
// never enqueued). Never call it on a window a worker may still reply
// to (an abandoned call).
func (c *Cluster) putSingle(s *single) {
	*s = single{done: s.done}
	if poisonSingle != nil {
		poisonSingle(s)
	}
	c.singlePool.Put(s)
}

// poisonSingle, when non-nil (set only by test builds), inspects a
// pooled window at the moment it is recycled — the -race
// pool-discipline tests install a checker that fails loudly on an
// undrained reply, which would mean a future caller could read a stale
// result.
var poisonSingle func(*single)

// call submits one event as a pooled window of one and waits for the
// worker's reply. For a catalog offer, tk (when non-nil) receives the
// ticket the admission was priced with.
//
// The window is recycled after its reply was drained (or when it never
// enqueued), and deliberately leaked to the garbage collector when the
// caller abandons the wait on context cancellation — the worker may
// still write into it, and a recycled window must never have a reply in
// flight.
func (c *Cluster) call(ctx context.Context, ev Event, tk *catalog.Ticket) (result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s := c.getSingle()
	s.ev[0] = ev
	if _, err := c.submitWindow(ctx, ev.Tenant, s.window(), s.tk[:0]); err != nil {
		c.putSingle(s)
		return result{}, err
	}
	if err := awaitReply(ctx, s.done); err != nil {
		return result{}, err
	}
	res := s.out[0]
	if tk != nil {
		*tk = s.tk[0]
	}
	c.putSingle(s)
	return res, res.err
}

// awaitReply blocks until a window's reply or ctx is done. Once a
// window is enqueued the worker applies it and settles every catalog
// reference itself, so a canceled caller has nothing to reconcile; it
// only loses the results.
func awaitReply(ctx context.Context, done chan struct{}) error {
	// Fast path: a context that can never be canceled needs no select.
	cancel := ctx.Done()
	if cancel == nil {
		<-done
		return nil
	}
	select {
	case <-done:
		return nil
	case <-cancel:
		return fmt.Errorf("%w: %w", ErrCanceled, ctx.Err())
	}
}

// validEventType is the serving-event allowlist every submission path
// checks.
func validEventType(t EventType) error {
	switch t {
	case EventStreamArrival, EventStreamDeparture, EventUserLeave, EventUserJoin, EventResolve:
		return nil
	default:
		return fmt.Errorf("cluster: unknown event type %d", t)
	}
}

// catalogOffer reports whether ev is an arrival priced by the catalog's
// acquire protocol.
func (ev *Event) catalogOffer() bool {
	return ev.CatalogID != "" && ev.Type == EventStreamArrival
}

// submitWindow is the one submission into the shard queues for a
// window with a reply: w.evs are one tenant's events, validated and
// normalized in place — Tenant set, CostScale cleared (discounts and
// fleet references are granted only by the catalog's own acquire
// protocol, never by a caller-supplied event), and CatalogID honored on
// arrivals and departures only. Then, in one read-locked section (so
// the events land on the layout and registry they were prepared
// against; Reshard swaps both under the write lock), it runs the
// catalog acquire protocol: a by-ID departure resolves its local
// index, and the by-ID offers are priced in one registry round trip,
// each taking a provisional reference so a concurrent departure cannot
// evict the origin while the window crosses the shard queue. It returns
// the offers' tickets, in window order, in tks (grown from the caller's
// storage). If the enqueue fails, every provisional reference is
// released; once enqueued, the worker settles each one in FIFO order.
//
// A window of one reports its event's error bare, as the per-operation
// session calls always have; a longer window names the failing event.
func (c *Cluster) submitWindow(ctx context.Context, tenant int, w window, tks []catalog.Ticket) ([]catalog.Ticket, error) {
	evErr := func(i int, err error) error {
		if len(w.evs) > 1 {
			return fmt.Errorf("cluster: batch event %d: %w", i, err)
		}
		return err
	}
	offers := 0
	for i := range w.evs {
		ev := &w.evs[i]
		if err := validEventType(ev.Type); err != nil {
			return nil, evErr(i, err)
		}
		ev.Tenant, ev.CostScale, ev.originPayer = tenant, 0, false
		if ev.Type != EventStreamArrival && ev.Type != EventStreamDeparture {
			ev.CatalogID = ""
		}
		if ev.catalogOffer() {
			offers++
		}
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	if tenant < 0 || tenant >= len(c.tenants) {
		return nil, fmt.Errorf("%w: tenant %d out of range [0,%d)", ErrUnknownTenant, tenant, len(c.tenants))
	}
	var ids []catalog.ID // gathered only for a multi-offer round trip
	var last catalog.ID
	for i := range w.evs {
		ev := &w.evs[i]
		switch {
		case ev.CatalogID == "":
		case c.catalog == nil:
			return nil, evErr(i, ErrNoCatalog)
		case ev.Type == EventStreamDeparture:
			local, err := c.catalog.Lookup(ev.CatalogID, tenant)
			if err != nil {
				return nil, evErr(i, wrapCatalogErr(err))
			}
			ev.Stream = local
		case offers > 1:
			ids = append(ids, ev.CatalogID)
		default:
			last = ev.CatalogID
		}
	}
	if cap(tks) < offers {
		tks = make([]catalog.Ticket, offers)
	}
	tks = tks[:offers]
	if offers > 0 {
		var err error
		if offers == 1 {
			tks[0], err = c.catalog.Acquire(last, tenant)
		} else {
			err = c.catalog.AcquireBatch(tenant, ids, tks)
		}
		if err != nil {
			return nil, wrapCatalogErr(err)
		}
		k := 0
		for i := range w.evs {
			if ev := &w.evs[i]; ev.catalogOffer() {
				ev.Stream, ev.CostScale, ev.originPayer = tks[k].Local, tks[k].Scale, tks[k].OriginPayer
				k++
			}
		}
	}
	if err := c.enqueueLocked(ctx, tenant, message{win: w}); err != nil {
		// Never enqueued: drop every provisional reference the window
		// acquired, in one round trip (still under the lock, so the
		// releases reach the registry that priced them).
		if offers > 0 {
			rel := make([]catalog.Settlement, 0, offers)
			for i := range w.evs {
				if ev := &w.evs[i]; ev.catalogOffer() {
					rel = append(rel, catalog.Settlement{Op: catalog.SettleReleasePending,
						ID: ev.CatalogID, Tenant: tenant, Origin: ev.originPayer})
				}
			}
			_ = c.catalog.SettleBatch(rel, nil)
		}
		return nil, err
	}
	return tks, nil
}

// eventResult assembles the caller-visible outcome of one replied
// event: the catalog outcome for a by-ID event (tk, read only for an
// offer, is the ticket it was priced with), else the plain field
// matching its type. A failed event carries only its error.
func (c *Cluster) eventResult(ev *Event, tk *catalog.Ticket, res *result) EventResult {
	out := EventResult{Type: ev.Type, CatalogID: ev.CatalogID, Err: res.err}
	switch {
	case res.err != nil:
	case ev.CatalogID != "":
		out.Catalog = c.catalogResult(ev, tk, res)
	case ev.Type == EventStreamArrival:
		out.Offer = res.offer
	case ev.Type == EventStreamDeparture:
		out.Depart = res.depart
	case ev.Type == EventResolve:
		out.Resolve = res.resolve
	default:
		out.Churn = res.churn
	}
	return out
}

// catalogResult assembles the typed outcome of a by-ID offer (priced
// at tk) or departure from the worker's result. The stream's full cost
// is read from the tenant's configuration, which no reshard replaces.
func (c *Cluster) catalogResult(ev *Event, tk *catalog.Ticket, res *result) CatalogResult {
	if ev.Type == EventStreamDeparture {
		return CatalogResult{
			Removed:     res.depart.Removed,
			Subscribers: res.depart.Subscribers,
			Refs:        res.refs,
			Evicted:     res.evicted,
		}
	}
	out := CatalogResult{
		Admitted:    res.offer.Accepted,
		Subscribers: res.offer.Subscribers,
		Utility:     res.offer.Utility,
		Refs:        res.refs,
		SharedWith:  tk.SharedWith,
		CostScale:   tk.Scale,
		FullCost:    c.cfgs[ev.Tenant].Instance.StreamCostSum(tk.Local),
		// A rejected offer's released provisional reference can be the
		// one that drains an occupied origin (the last confirmed holder
		// already departed while this admission was in flight).
		Evicted: res.evicted,
	}
	if out.Admitted {
		out.CostCharged = tk.Scale * out.FullCost
	}
	return out
}

// enqueueLocked is the one shard-channel send behind submitWindow: it
// checks the open state, then delivers msg to tenant's shard under the
// cluster's backpressure mode. It requires c.mu held and a valid
// tenant, and must stay in the same critical section as any read of
// the cluster's layout fields (tenants, shardOf, shards, catalog) the
// caller pairs it with — Reshard swaps those under the write lock, and
// an event must land on the layout it was prepared against.
func (c *Cluster) enqueueLocked(ctx context.Context, tenant int, msg message) error {
	// An already-done context must not enqueue: without this guard the
	// send and ctx.Done() cases below could both be ready and the event
	// would be applied ~half the time while the caller sees ErrCanceled.
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	if c.closed {
		return ErrClosed
	}
	ch := c.shards[c.shardOf[tenant]].ch
	if c.opts.Backpressure == BackpressureReject {
		select {
		case ch <- msg:
			return nil
		default:
			return fmt.Errorf("%w: shard %d", ErrQueueFull, c.shardOf[tenant])
		}
	}
	// Fast path: a context that can never be canceled (Background and
	// friends) needs no select — a plain channel send is markedly
	// cheaper on the per-event hot path.
	done := ctx.Done()
	if done == nil {
		ch <- msg
		return nil
	}
	select {
	case ch <- msg:
		return nil
	case <-done:
		return fmt.Errorf("%w: %w", ErrCanceled, ctx.Err())
	}
}
