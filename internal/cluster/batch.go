package cluster

import (
	"context"

	"repro/internal/catalog"
)

// EventResult is the typed outcome of one event inside an ApplyBatch
// call; exactly the field matching Type (and, for catalog-managed
// events, Catalog) is populated. A failed re-solve sets Err for its own
// slot without failing the batch.
type EventResult struct {
	// Type echoes the event's type.
	Type EventType
	// CatalogID echoes the fleet identity of a catalog-managed event.
	CatalogID catalog.ID
	// Offer / Depart / Churn / Resolve mirror the per-operation session
	// results (plain events).
	Offer   OfferResult
	Depart  DepartResult
	Churn   ChurnResult
	Resolve ResolveResult
	// Catalog is the typed outcome of a catalog-managed offer or
	// departure (CatalogID non-empty), mirroring OfferCatalogStream /
	// DepartCatalogStream.
	Catalog CatalogResult
	// Err is the per-event error (only re-solves can fail).
	Err error
}

// ApplyBatch applies a sequence of events for one tenant as one window:
// the whole batch crosses the shard queue once, the worker applies it
// in order, and one typed result per event comes back positionally —
// N single session calls pay N queue crossings and N replies, one
// ApplyBatch pays one of each.
//
// Catalog events are first-class batch citizens: an arrival or
// departure carrying a CatalogID runs the catalog protocol exactly like
// OfferCatalogStream / DepartCatalogStream, with one difference of
// mechanics, not semantics: all of the batch's catalog arrivals are
// priced in one registry round trip (catalog.Registry.AcquireBatch)
// before the batch crosses the shard queue — each acquisition sees the
// ones before it, exactly as if the events had been pipelined on a
// StreamConn. (The worker settles them in one ordered SettleBatch
// round trip before replying, as it does for every window.) Because
// pricing happens at submission (as on a pipelined stream), a depart-then-re-offer of the same CatalogID *within one
// batch* is quoted against the pre-batch sharing state; split phases
// across batches when serial per-call pricing is wanted.
//
// The Tenant and CostScale fields of each event are overridden (tenant
// from the call; the scale from the catalog ticket, or cleared —
// discounts and fleet references are granted only by the catalog's own
// acquire protocol, never by a caller-supplied event); CatalogID is
// honored on arrivals and departures and cleared on other event types,
// following the StreamConn convention. Catalog events require
// Options.Catalog and known bindings; violations fail the whole batch
// before any event applies. An empty batch still crosses the queue, so
// it reports ErrClosed / ErrCanceled / ErrUnknownTenant like every other
// call. On a context error the batch may still be applied (it is
// already queued); only the results are lost, exactly like the
// single-event session methods.
func (c *Cluster) ApplyBatch(ctx context.Context, tenant int, events []Event) ([]EventResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	w := window{
		evs:  append([]Event(nil), events...),
		out:  make([]result, len(events)),
		done: make(chan struct{}, 1),
	}
	tks, err := c.submitWindow(ctx, tenant, w, nil)
	if err != nil {
		return nil, err
	}
	if err := awaitReply(ctx, w.done); err != nil {
		return nil, err
	}
	out := make([]EventResult, len(w.evs))
	for i := range w.evs {
		var tk *catalog.Ticket
		if w.evs[i].catalogOffer() {
			tk, tks = &tks[0], tks[1:]
		}
		out[i] = c.eventResult(&w.evs[i], tk, &w.out[i])
	}
	return out, nil
}
