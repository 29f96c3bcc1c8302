package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"time"

	videodist "repro"
	"repro/streamclient"
)

// passJob tells the receiver how many results the next pass returns
// and, in the open loop, where its events sit on the arrival schedule.
type passJob struct {
	n     int
	sched *openSchedule // nil in the closed loop
	first int           // schedule index of the pass's first event
}

// openSchedule is the open loop's arrival process: events are due in
// bursts of perTick every tick, whether or not earlier results are
// back, so the sender wakes once per tick rather than once per event.
//
// Latency windows are stretches of the pass, the same in every pass:
// openPasses cuts the pass into equal windows of at least minWindow
// events, so a burst the schedule puts at one point of the pass lands
// in the same window every time.
type openSchedule struct {
	start   time.Time
	perTick int
	passLen int // events per pass
	windows int // latency windows per pass

	// Owned by the receiver until it reports the last pass: the
	// current window's ack latencies, timed from due time, each
	// finished window's median, and each window's p99 per pass,
	// indexed by the window's place in the pass.
	cur Recorder
	p50 []float64
	p99 [][]float64
}

// ack records event g's ack at now, closing its window after its last
// event.
func (o *openSchedule) ack(g int, now time.Time) {
	o.cur.Record(now.Sub(o.due(g)))
	k := g % o.passLen
	if w := k * o.windows / o.passLen; (k+1)*o.windows/o.passLen != w {
		o.p50 = append(o.p50, o.cur.Quantile(0.5))
		o.p99[w] = append(o.p99[w], o.cur.Quantile(0.99))
		o.cur = Recorder{}
	}
}

const tick = time.Millisecond

// due returns when event g of the schedule is due.
func (o *openSchedule) due(g int) time.Time {
	return o.start.Add(time.Duration(g/o.perTick) * tick)
}

// passDone is the receiver's report on one pass.
type passDone struct {
	utility float64 // Σ admitted utility, summed in submission order
	failed  int     // results carrying an error
	last    time.Time
	err     error // transport or protocol failure: the run cannot continue
}

// loadConn drives one client connection with two goroutines: the
// caller sends, a receiver goroutine reads results. Every result must
// arrive exactly once, in submission order.
type loadConn struct {
	conn   *streamclient.Conn
	tr     *Tracer
	parent int
	jobs   chan passJob
	done   chan passDone
	exited chan struct{}
	// Time spent inside Conn.Send and Conn.Recv while tracing. recvTime
	// belongs to the receiver until it reports a pass.
	sendTime, recvTime time.Duration
}

func newLoadConn(conn *streamclient.Conn, tr *Tracer, parent int) *loadConn {
	d := &loadConn{
		conn: conn, tr: tr, parent: parent,
		// Sized so an open-loop phase can queue every pass ahead of
		// the receiver without blocking the paced sender.
		jobs:   make(chan passJob, 256),
		done:   make(chan passDone, 256),
		exited: make(chan struct{}),
	}
	go d.receive()
	return d
}

// receive reads results until the job channel closes, then expects
// the server's end of stream.
func (d *loadConn) receive() {
	defer close(d.exited)
	seq := 0
	for job := range d.jobs {
		var pd passDone
		for k := 0; k < job.n; k++ {
			start := d.tr.Begin()
			line, err := d.conn.RecvRaw()
			d.recvTime += d.tr.End("streamclient.Recv", d.parent, start)
			now := time.Now()
			if err != nil {
				pd.err = fmt.Errorf("recv result %d: %w", seq, err)
				d.done <- pd
				return
			}
			got, util, failed, err := parseResult(line)
			if err != nil {
				pd.err = err
				d.done <- pd
				return
			}
			if got != seq {
				pd.err = fmt.Errorf("ack order: got seq %d, want %d", got, seq)
				d.done <- pd
				return
			}
			seq++
			pd.utility += util
			if failed {
				pd.failed++
			}
			if o := job.sched; o != nil {
				o.ack(job.first+k, now)
			}
			pd.last = now
		}
		d.done <- pd
	}
	if line, err := d.conn.RecvRaw(); err != io.EOF {
		d.done <- passDone{err: fmt.Errorf("extra result after the last event (%q, %v)", line, err)}
		return
	}
}

// parseResult extracts the seq, the admitted utility and the error mark
// from one result line. It reads the fixed keys the wire format
// defines, which the HTTP parity tests pin.
func parseResult(line []byte) (seq int, util float64, failed bool, err error) {
	const seqKey = `{"seq":`
	if !bytes.HasPrefix(line, []byte(seqKey)) {
		return 0, 0, false, fmt.Errorf("bad result line %q", line)
	}
	rest := line[len(seqKey):]
	end := bytes.IndexAny(rest, ",}")
	if end < 0 {
		return 0, 0, false, fmt.Errorf("bad result line %q", line)
	}
	seq, err = strconv.Atoi(string(rest[:end]))
	if err != nil {
		return 0, 0, false, fmt.Errorf("bad result seq in %q", line)
	}
	if bytes.Contains(line, []byte(`"error":`)) {
		return seq, 0, true, nil
	}
	for _, key := range [][]byte{[]byte(`"Utility":`), []byte(`"utility":`)} {
		if i := bytes.Index(line, key); i >= 0 {
			num := line[i+len(key):]
			j := bytes.IndexAny(num, ",}")
			if j < 0 {
				return 0, 0, false, fmt.Errorf("bad utility in %q", line)
			}
			util, err = strconv.ParseFloat(string(num[:j]), 64)
			if err != nil {
				return 0, 0, false, fmt.Errorf("bad utility in %q", line)
			}
			break
		}
	}
	return seq, util, false, nil
}

func (d *loadConn) send(ev streamclient.Event) error {
	start := d.tr.Begin()
	err := d.conn.Send(ev)
	d.sendTime += d.tr.End("streamclient.Send", d.parent, start)
	return err
}

// closedPass pipelines one whole pass as fast as the stack accepts it
// and waits for its last result. The elapsed time runs from the first
// send to the last result.
func (d *loadConn) closedPass(pass []streamclient.Event) (passDone, time.Duration, error) {
	d.jobs <- passJob{n: len(pass)}
	start := time.Now()
	for i := range pass {
		if err := d.send(pass[i]); err != nil {
			return passDone{}, 0, fmt.Errorf("send: %w", err)
		}
	}
	if err := d.conn.Flush(); err != nil {
		return passDone{}, 0, fmt.Errorf("flush: %w", err)
	}
	pd := <-d.done
	if pd.err != nil {
		return pd, 0, pd.err
	}
	return pd, pd.last.Sub(start), nil
}

// openPasses sends passes back to back on the open-loop schedule at
// rate events per second and records the sender's lateness into lag.
// The returned schedule holds the ack latency median and p99 of each
// window of at least minWindow events, in nanoseconds. Lines are
// flushed before every wait, so an event never sits in the client
// buffer past its due time.
func (d *loadConn) openPasses(pass []streamclient.Event, passes int, rate float64, minWindow int, lag *Recorder) ([]passDone, *openSchedule, error) {
	if passes > cap(d.done) {
		// The receiver reports every pass before the sender reads any
		// report; past the buffer it would stop reading results.
		return nil, nil, fmt.Errorf("open loop of %d passes exceeds the %d the receiver can report ahead", passes, cap(d.done))
	}
	o := &openSchedule{
		start:   time.Now().Add(tick),
		perTick: max(1, int(rate*tick.Seconds())),
		passLen: len(pass),
		windows: max(1, len(pass)/minWindow),
	}
	o.p99 = make([][]float64, o.windows)
	pc, err := newPacer(o.start, tick)
	if err != nil {
		return nil, nil, err
	}
	defer pc.close()
	g := 0
	for p := 0; p < passes; p++ {
		d.jobs <- passJob{n: len(pass), sched: o, first: g}
		for i := range pass {
			due := o.due(g)
			if time.Now().Before(due) {
				if err := d.conn.Flush(); err != nil {
					return nil, nil, fmt.Errorf("flush: %w", err)
				}
				for time.Now().Before(due) {
					if err := pc.wait(); err != nil {
						return nil, nil, err
					}
				}
			}
			lag.Record(time.Since(due))
			if err := d.send(pass[i]); err != nil {
				return nil, nil, fmt.Errorf("send: %w", err)
			}
			g++
		}
	}
	if err := d.conn.Flush(); err != nil {
		return nil, nil, fmt.Errorf("flush: %w", err)
	}
	out := make([]passDone, passes)
	for p := range out {
		// The receiver owns the recorders until it reports the last pass.
		out[p] = <-d.done
		if out[p].err != nil {
			return nil, nil, out[p].err
		}
	}
	return out, o, nil
}

// finish ends the request body and waits for the receiver to see the
// server's end of stream.
func (d *loadConn) finish() error {
	close(d.jobs)
	err := d.conn.CloseSend()
	<-d.exited
	select {
	case pd := <-d.done:
		err = errors.Join(err, pd.err)
	default:
	}
	return errors.Join(err, d.conn.Close())
}

// apply runs one session call against an in-process cluster and
// returns the utility it added. snapshotType steps take a fleet
// snapshot and fail unless every tenant is feasible.
func apply(ctx context.Context, c *videodist.Cluster, ev streamclient.Event) (float64, error) {
	switch ev.Type {
	case "offer":
		r, err := c.OfferStream(ctx, ev.Tenant, ev.Stream)
		return r.Utility, err
	case "depart":
		_, err := c.DepartStream(ctx, ev.Tenant, ev.Stream)
		return 0, err
	case "leave":
		_, err := c.UserLeave(ctx, ev.Tenant, ev.User)
		return 0, err
	case "join":
		_, err := c.UserJoin(ctx, ev.Tenant, ev.User)
		return 0, err
	case "resolve":
		_, err := c.Resolve(ctx, ev.Tenant, videodist.ResolveOptions{Install: ev.Install})
		return 0, err
	case "catalog-offer":
		r, err := c.OfferCatalogStream(ctx, ev.Tenant, videodist.CatalogID(ev.CatalogID))
		return r.Utility, err
	case "catalog-depart":
		_, err := c.DepartCatalogStream(ctx, ev.Tenant, videodist.CatalogID(ev.CatalogID))
		return 0, err
	case snapshotType:
		fs, err := c.Snapshot()
		if err == nil && !fs.AllFeasible {
			err = fmt.Errorf("snapshot: AllFeasible is false")
		}
		return 0, err
	}
	return 0, fmt.Errorf("unknown event type %q", ev.Type)
}

// sessionPass runs one pass of session calls in a closed loop with one
// caller, timing each call into ack.
func sessionPass(c *videodist.Cluster, pass []streamclient.Event, ack *Recorder, tr *Tracer, parent int) (passDone, time.Duration, error) {
	ctx := context.Background()
	var pd passDone
	start := time.Now()
	prev := start
	for i := range pass {
		st := tr.Begin()
		util, err := apply(ctx, c, pass[i])
		tr.End(spanName(pass[i].Type), parent, st)
		now := time.Now()
		if err != nil {
			if pass[i].Type == snapshotType {
				return pd, 0, err
			}
			pd.failed++
		}
		pd.utility += util
		ack.Record(now.Sub(prev))
		prev = now
	}
	pd.last = prev
	return pd, prev.Sub(start), nil
}

// spanName names a session call's span by the layer it exercises.
func spanName(typ string) string {
	switch typ {
	case "resolve":
		return "cluster.Resolve"
	case snapshotType:
		return "cluster.Snapshot"
	}
	return "cluster.session"
}
