package cluster

import (
	"context"
	"fmt"
	"io"
	"sync"

	"repro/internal/catalog"
)

// Serving API v4: persistent streaming ingestion.
//
// A StreamConn is a long-lived, pipelined session over the cluster: the
// submitter pushes events one after another without waiting for their
// results, the shard workers apply them in submission order (per
// tenant, exactly like the single-event session methods), and the
// receiver reads one typed result per event back in submission order.
// Between the two sides sits a bounded in-flight window — the stream's
// backpressure point: when Window results are unread, Submit blocks (or
// fails fast with ErrQueueFull under BackpressureReject) until the
// receiver catches up, so a slow reader can never queue unbounded
// state.
//
// Catalog events need no special casing: each streamed event is a
// window of one through the same submission path as OfferCatalogStream
// (the registry prices the admission and takes a provisional reference
// before the event crosses the shard queue), and the shard worker
// settles the fleet reference in FIFO order before replying. A
// connection that is dropped with results unread therefore leaks
// nothing — every enqueued event still applies and settles on its
// worker; only the results go unobserved.
//
// Because every path applies the same events in the same per-shard
// order, a streamed schedule produces bit-identical fleet snapshots to
// the same schedule submitted through the per-operation session
// methods, ApplyBatch, or fire-and-forget replay, at any shard count.
// The HTTP front end exposes this surface as `POST /v1/stream` (NDJSON in, NDJSON out; see internal/httpserve and
// repro/streamclient).

// StreamOptions configures one StreamConn.
type StreamOptions struct {
	// Window bounds the number of in-flight events (submitted, result
	// not yet received). Default 64.
	Window int
	// Backpressure selects what Submit does when the window is full:
	// BackpressureBlock (default) parks the submitter until the receiver
	// drains a result or ctx is done; BackpressureReject fails fast with
	// ErrQueueFull. Independent of the cluster's own shard-queue mode.
	Backpressure Backpressure
}

// StreamResult is one event's typed outcome on a stream, delivered in
// submission order. Exactly the field matching Type (and, for
// catalog-managed events, Catalog) is populated. Err carries a
// per-event failure — unknown tenant, unknown catalog stream, a failed
// re-solve, or a transport sentinel from the shard enqueue — without
// ending the stream; match it with errors.Is against the serving
// taxonomy.
type StreamResult struct {
	// Seq is the event's submission index on this stream (0-based).
	Seq int
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
	// Err is the per-event error; the stream itself stays usable.
	Err error
}

// streamPending rides the in-flight window: one entry per submitted
// event, in submission order, embedding the event's window of one. Its
// done channel is signalled exactly once — by the shard worker, or by
// Submit itself when the event failed before enqueueing.
type streamPending struct {
	seq int
	single
}

// StreamConn is a persistent, pipelined ingestion session (serving API
// v4). One goroutine calls Submit (and finally CloseSend); another
// calls Recv until io.EOF — each side is independently serialized, so
// exactly one submitter and one receiver may run concurrently. Results
// arrive in submission order.
type StreamConn struct {
	c      *Cluster
	window Backpressure

	sendMu     sync.Mutex
	sendClosed bool
	seq        int
	pending    chan *streamPending
	// free recycles settled pending entries (and their reply channels,
	// consumed exactly once by Recv before recycling) back to Submit —
	// the stream hot path allocates nothing per event once warm.
	// Entries abandoned by Close are simply not recycled.
	free chan *streamPending

	recvMu sync.Mutex
	// head is the oldest in-flight event, popped from pending but not
	// yet settled — the one-slot peek TryRecv needs to check "is the
	// next result ready?" without consuming it.
	head *streamPending
}

// OpenStream opens a streaming ingestion session over the cluster. The
// connection stays valid until CloseSend (graceful: Recv drains the
// remaining results, then reports io.EOF) or until the cluster closes.
func (c *Cluster) OpenStream(opts StreamOptions) (*StreamConn, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return nil, ErrClosed
	}
	if opts.Window <= 0 {
		opts.Window = 64
	}
	return &StreamConn{
		c:       c,
		window:  opts.Backpressure,
		pending: make(chan *streamPending, opts.Window),
		free:    make(chan *streamPending, opts.Window),
	}, nil
}

// Submit pipelines one event onto the stream: it reserves the next
// in-flight window slot (blocking or rejecting per the stream's
// backpressure mode), routes the event to its shard worker as a window
// of one, and returns without waiting for the result — Recv delivers
// it, in submission order. ev follows the ApplyBatch conventions: Type must be a serving
// event type and CostScale is ignored (discounts are granted only by
// the catalog's acquire protocol). Unlike ApplyBatch, catalog-managed
// events are first-class: an arrival or departure carrying a CatalogID
// runs the catalog protocol exactly like OfferCatalogStream /
// DepartCatalogStream, with the shard worker settling the fleet
// reference in FIFO order.
//
// Submit fails only when no window slot could be reserved (ErrClosed
// after CloseSend, ErrQueueFull under BackpressureReject, ErrCanceled);
// every other failure — unknown tenant or catalog stream, a full shard
// queue, a closed cluster — is delivered in-band as the event's
// StreamResult.Err, keeping the one-result-per-event contract.
func (sc *StreamConn) Submit(ctx context.Context, ev Event) error {
	if ctx == nil {
		ctx = context.Background()
	}
	sc.sendMu.Lock()
	defer sc.sendMu.Unlock()
	if sc.sendClosed {
		return ErrClosed
	}
	var p *streamPending
	select {
	case p = <-sc.free:
		p.single = single{done: p.done}
	default:
		p = &streamPending{single: single{done: make(chan struct{}, 1)}}
	}
	p.seq = sc.seq
	p.ev[0] = ev
	if sc.window == BackpressureReject {
		select {
		case sc.pending <- p:
		default:
			return fmt.Errorf("%w: stream window (%d in flight)", ErrQueueFull, cap(sc.pending))
		}
	} else {
		// An already-done context must not reserve a slot (mirrors
		// enqueue): otherwise both cases below could be ready and the
		// event would be submitted ~half the time under ErrCanceled.
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("%w: %w", ErrCanceled, err)
		}
		if done := ctx.Done(); done == nil {
			sc.pending <- p
		} else {
			select {
			case sc.pending <- p:
			case <-done:
				return fmt.Errorf("%w: %w", ErrCanceled, ctx.Err())
			}
		}
	}
	sc.seq++
	if _, err := sc.c.submitWindow(ctx, ev.Tenant, p.window(), p.tk[:0]); err != nil {
		p.out[0] = result{err: err}
		p.done <- struct{}{}
	}
	return nil
}

// Recv returns the next event's typed result, in submission order. It
// blocks until the event settles on its shard worker; after CloseSend
// it drains the remaining in-flight results and then reports io.EOF.
// Per-event failures arrive as StreamResult.Err with a nil Recv error.
// A Recv aborted by ctx loses nothing: the event it was waiting on
// stays at the head of the stream for the next Recv.
func (sc *StreamConn) Recv(ctx context.Context) (StreamResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	sc.recvMu.Lock()
	defer sc.recvMu.Unlock()
	done := ctx.Done()
	if sc.head == nil {
		if done == nil {
			q, ok := <-sc.pending
			if !ok {
				return StreamResult{}, io.EOF
			}
			sc.head = q
		} else {
			select {
			case q, ok := <-sc.pending:
				if !ok {
					return StreamResult{}, io.EOF
				}
				sc.head = q
			case <-done:
				return StreamResult{}, fmt.Errorf("%w: %w", ErrCanceled, ctx.Err())
			}
		}
	}
	if err := awaitReply(ctx, sc.head.done); err != nil {
		return StreamResult{}, err
	}
	return sc.settleHead(), nil
}

// poisonRecycled, when non-nil (set only by test builds), scribbles a
// pending entry right before it returns to the free list, so any read
// of a recycled entry observes garbage deterministically — and shows up
// as a data race under -race when the reader is concurrent. Production
// builds leave it nil.
var poisonRecycled func(*streamPending)

// settleHead assembles the head's result and recycles the entry
// (called with recvMu held, after its reply was consumed). Ownership
// rule: the receiver — and only the receiver, only after draining the
// entry's reply — puts the entry back; entries abandoned by Close are
// leaked to the garbage collector, never recycled.
func (sc *StreamConn) settleHead() StreamResult {
	p := sc.head
	sc.head = nil
	r := sc.c.eventResult(&p.ev[0], &p.tk[0], &p.out[0])
	out := StreamResult{Seq: p.seq, Type: r.Type, CatalogID: r.CatalogID, Offer: r.Offer,
		Depart: r.Depart, Churn: r.Churn, Resolve: r.Resolve, Catalog: r.Catalog, Err: r.Err}
	if poisonRecycled != nil {
		poisonRecycled(p)
	}
	select {
	case sc.free <- p:
	default:
	}
	return out
}

// TryRecv is the non-blocking Recv: it returns the next result only if
// it has already settled (ok true). ok false means no result is ready
// right now — including the drained-after-CloseSend state, which the
// next blocking Recv reports as io.EOF. Remote writers use it to
// coalesce flushes: drain everything that is ready, then flush once.
func (sc *StreamConn) TryRecv() (StreamResult, bool) {
	sc.recvMu.Lock()
	defer sc.recvMu.Unlock()
	if sc.head == nil {
		select {
		case q, ok := <-sc.pending:
			if !ok {
				return StreamResult{}, false
			}
			sc.head = q
		default:
			return StreamResult{}, false
		}
	}
	select {
	case <-sc.head.done:
		return sc.settleHead(), true
	default:
		return StreamResult{}, false
	}
}

// CloseSend ends the submit side: subsequent Submits fail with
// ErrClosed, and once the in-flight results are drained Recv reports
// io.EOF. Idempotent.
func (sc *StreamConn) CloseSend() {
	sc.sendMu.Lock()
	defer sc.sendMu.Unlock()
	if !sc.sendClosed {
		sc.sendClosed = true
		close(sc.pending)
	}
}

// Close abandons the stream: the submit side is closed and any unread
// results are discarded. Every in-flight event still applies and
// settles on its shard worker (catalog references included), so closing
// mid-stream leaks nothing. Safe to call at any time, from any
// goroutine, including after CloseSend.
func (sc *StreamConn) Close() error {
	sc.CloseSend()
	return nil
}
