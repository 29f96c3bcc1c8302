package main

import (
	"net"
	"sync"
	"time"

	videodist "repro"
	"repro/internal/catalog"
	"repro/internal/wal"
)

// The wrappers below plug into the stack's public seams
// (WALOptions.FS, CatalogOptions.Remote, fleet.Options.Dial) and time or
// count what crosses them. They live in the benchmark so the program
// under test carries no instrumentation of its own.

// walFS counts segment writes and times every datasync.
//
// Caveat: the log's flusher starts asynchronous writeback
// (sync_file_range) on files that implement an unexported hint
// interface before it datasyncs them. A wrapped file hides that hint,
// so under this wrapper every datasync does its own writeback and
// wal.datasync_us_* is an upper bound on the unwrapped cost. The
// counts (datasyncs, bytes) are exact.
type walFS struct {
	tr     *Tracer
	parent int

	mu    sync.Mutex
	bytes int64
	syncs int64
	sync  Recorder
}

const walCaveat = "wal.datasync_us_* is an upper bound: the WALOptions.FS wrapper hides the unexported sync_file_range writeback hint, so each datasync does its own writeback; datasync and byte counts are exact"

// OpenSegment opens the segment on the host filesystem and wraps it.
func (f *walFS) OpenSegment(path string) (videodist.WALFile, error) {
	file, err := wal.OSFS{}.OpenSegment(path)
	if err != nil {
		return nil, err
	}
	return &walFile{WALFile: file, fs: f}, nil
}

// walFile is one wrapped segment. A pointer, so the flusher's
// dedup-by-identity still holds.
type walFile struct {
	videodist.WALFile
	fs *walFS
}

func (f *walFile) Write(p []byte) (int, error) {
	n, err := f.WALFile.Write(p)
	f.fs.mu.Lock()
	f.fs.bytes += int64(n)
	f.fs.mu.Unlock()
	return n, err
}

func (f *walFile) Datasync() error {
	start := f.fs.tr.Begin()
	t0 := time.Now()
	err := f.WALFile.Datasync()
	d := time.Since(t0)
	f.fs.tr.End("wal.Datasync", f.fs.parent, start)
	f.fs.mu.Lock()
	f.fs.syncs++
	f.fs.sync.Record(d)
	f.fs.mu.Unlock()
	return err
}

// counts returns the bytes written and datasyncs so far.
func (f *walFS) counts() (bytes, syncs int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.bytes, f.syncs
}

// timedCatalog times every call a fleet node makes to its remote
// catalog service: each is one wire round trip.
type timedCatalog struct {
	catalog.Service
	tr     *Tracer
	parent int

	mu  sync.Mutex
	ops int64
	rtt Recorder
}

func (c *timedCatalog) done(start int64, t0 time.Time) {
	d := time.Since(t0)
	c.tr.End("catalog-remote.call", c.parent, start)
	c.mu.Lock()
	c.ops++
	c.rtt.Record(d)
	c.mu.Unlock()
}

func (c *timedCatalog) Acquire(id catalog.ID, tenant int) (catalog.Ticket, error) {
	start, t0 := c.tr.Begin(), time.Now()
	defer c.done(start, t0)
	return c.Service.Acquire(id, tenant)
}

func (c *timedCatalog) AcquireBatch(tenant int, ids []catalog.ID, out []catalog.Ticket) error {
	start, t0 := c.tr.Begin(), time.Now()
	defer c.done(start, t0)
	return c.Service.AcquireBatch(tenant, ids, out)
}

func (c *timedCatalog) Lookup(id catalog.ID, tenant int) (int, error) {
	start, t0 := c.tr.Begin(), time.Now()
	defer c.done(start, t0)
	return c.Service.Lookup(id, tenant)
}

func (c *timedCatalog) Release(id catalog.ID, tenant int, held, origin bool) (int, bool) {
	start, t0 := c.tr.Begin(), time.Now()
	defer c.done(start, t0)
	return c.Service.Release(id, tenant, held, origin)
}

func (c *timedCatalog) SettleBatch(ops []catalog.Settlement, out []catalog.SettleResult) error {
	start, t0 := c.tr.Begin(), time.Now()
	defer c.done(start, t0)
	return c.Service.SettleBatch(ops, out)
}

func (c *timedCatalog) stats() (int64, *Recorder) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.rtt
	return c.ops, &r
}

// countingDialer wraps the router's upstream connections and counts
// the writes and bytes the router puts on them.
type countingDialer struct {
	tr     *Tracer
	parent int

	mu     sync.Mutex
	writes int64
	bytes  int64
}

func (d *countingDialer) dial(network, addr string) (net.Conn, error) {
	c, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, d: d}, nil
}

func (d *countingDialer) counts() (writes, bytes int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.writes, d.bytes
}

type countingConn struct {
	net.Conn
	d *countingDialer
}

func (c *countingConn) Write(p []byte) (int, error) {
	start := c.d.tr.Begin()
	n, err := c.Conn.Write(p)
	c.d.tr.End("fleet.upstream.Write", c.d.parent, start)
	c.d.mu.Lock()
	c.d.writes++
	c.d.bytes += int64(n)
	c.d.mu.Unlock()
	return n, err
}

// catOp is one recorded registry call.
type catOp struct {
	acquire bool // AcquireBatch when true, SettleBatch otherwise
	tenant  int
	ids     []catalog.ID
	settles []catalog.Settlement
}

// recordingCatalog passes calls through to an in-process registry and
// records the acquisitions and settlements for a timed replay on a
// fresh registry. The lock is held across each call, so the record is
// exactly the order the registry applied them in. Single acquisitions
// and releases are recorded as one-element batches: the registry prices
// and settles them identically.
type recordingCatalog struct {
	*catalog.Registry
	mu  sync.Mutex
	ops []catOp
}

func (r *recordingCatalog) Acquire(id catalog.ID, tenant int) (catalog.Ticket, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops = append(r.ops, catOp{acquire: true, tenant: tenant, ids: []catalog.ID{id}})
	return r.Registry.Acquire(id, tenant)
}

func (r *recordingCatalog) AcquireBatch(tenant int, ids []catalog.ID, out []catalog.Ticket) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops = append(r.ops, catOp{acquire: true, tenant: tenant, ids: append([]catalog.ID(nil), ids...)})
	return r.Registry.AcquireBatch(tenant, ids, out)
}

func (r *recordingCatalog) Release(id catalog.ID, tenant int, held, origin bool) (int, bool) {
	op := catalog.SettleReleasePending
	if held {
		op = catalog.SettleRelease
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops = append(r.ops, catOp{settles: []catalog.Settlement{{Op: op, ID: id, Tenant: tenant, Origin: origin}}})
	return r.Registry.Release(id, tenant, held, origin)
}

func (r *recordingCatalog) SettleBatch(ops []catalog.Settlement, out []catalog.SettleResult) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops = append(r.ops, catOp{settles: append([]catalog.Settlement(nil), ops...)})
	return r.Registry.SettleBatch(ops, out)
}

func (r *recordingCatalog) recorded() []catOp {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ops
}
