// Package pio implements the parallel I/O interfaces whose behaviour the
// paper compares:
//
//   - Client/Handle: the per-process file interface. Its ClientParams
//     encode the per-call software cost of a particular library — the
//     difference between "Fortran I/O on PFS" and "PASSION calls" is, to
//     first order, a per-call constant plus a seek-call discipline, and
//     that is exactly what Tables 2 and 3 of the paper measure.
//   - Async reads and a Prefetcher: PASSION's prefetching interface. The
//     caller overlaps computation with a read that runs as a chain of
//     engine events, no process of its own; the awaited time (wait + copy)
//     is what gets charged as I/O, following the paper's measurement
//     convention.
//   - Collective: two-phase collective I/O (§4.5). Ranks exchange data over
//     the interconnect so that each rank performs a single large
//     conforming request against the file system.
//   - Funnel: a Chameleon-style library where one node performs all I/O in
//     small chunks (the AST baseline).
//
// All interfaces record their operations in a trace.Recorder so the paper's
// op-level tables fall out of any run.
//
// A data call's stages (positioning seek, call overhead, striped transfer)
// run as one pooled continuation (see op.go): every stage but the last is an
// engine callback and the last is the caller's single wake, so a call costs
// one process resume however many stages it has — under a fault plan's
// resilience policy too, whose retries and request timeouts are stages of
// the transfer's chain in pfs.
package pio

import (
	"fmt"

	"pario/internal/pfs"
	"pario/internal/sim"
	"pario/internal/stats"
	"pario/internal/trace"
)

// ClientParams is the cost model of one I/O library's client side.
type ClientParams struct {
	// Name identifies the interface ("fortran", "passion", "unix").
	Name string
	// OpenSec/CloseSec/FlushSec are per-call costs of metadata operations.
	OpenSec  float64
	CloseSec float64
	FlushSec float64
	// ReadCallSec/WriteCallSec are the client software costs paid on every
	// data call, before any disk or network time.
	ReadCallSec  float64
	WriteCallSec float64
	// SeekSec is the cost of a seek call.
	SeekSec float64
	// ExplicitSeeks makes every positioned data call issue (and count) a
	// separate seek first — the PASSION interface discipline that explains
	// the seek-count explosion between the paper's Tables 2 and 3.
	ExplicitSeeks bool
}

// Validate reports obviously broken parameters.
func (c ClientParams) Validate() error {
	if c.OpenSec < 0 || c.CloseSec < 0 || c.FlushSec < 0 ||
		c.ReadCallSec < 0 || c.WriteCallSec < 0 || c.SeekSec < 0 {
		return fmt.Errorf("pio: negative cost in params %+v", c)
	}
	return nil
}

// Client is one process's connection to the file system through a
// particular interface.
type Client struct {
	fs   *pfs.FS
	node int // topology node index of the owning process
	par  ClientParams
	rec  *trace.Recorder

	// mIndep counts independent (per-process) data calls; collective ops
	// are counted separately by Collective, so the pair shows how much of
	// a run's I/O went through each discipline.
	mIndep *stats.Counter
	// Prefetch accounting (see Handle.Await).
	mPrefHit  *stats.Counter
	mPrefMiss *stats.Counter

	ops []*ioOp // free list of data-call continuations
}

// NewClient builds a client for the process on the given topology node,
// recording into rec.
func NewClient(fs *pfs.FS, node int, par ClientParams, rec *trace.Recorder) (*Client, error) {
	if err := par.Validate(); err != nil {
		return nil, err
	}
	if rec == nil {
		rec = trace.NewRecorder()
	}
	reg := fs.Engine().Metrics()
	return &Client{fs: fs, node: node, par: par, rec: rec,
		mIndep:    reg.Counter("pio.independent_ops"),
		mPrefHit:  reg.Counter("pio.prefetch_hits"),
		mPrefMiss: reg.Counter("pio.prefetch_misses")}, nil
}

// Recorder returns the trace recorder.
func (c *Client) Recorder() *trace.Recorder { return c.rec }

// Params returns the interface cost model.
func (c *Client) Params() ClientParams { return c.par }

// Node returns the topology node of the owning process.
func (c *Client) Node() int { return c.node }

// FS returns the file system.
func (c *Client) FS() *pfs.FS { return c.fs }

// Handle is an open file with a position.
type Handle struct {
	c   *Client
	f   *pfs.File
	pos int64
}

// Open opens f, charging the interface's open cost.
func (c *Client) Open(p *sim.Proc, f *pfs.File) *Handle {
	start := p.Now()
	if c.par.OpenSec > 0 {
		p.Delay(c.par.OpenSec)
	}
	c.rec.Record(trace.Open, p.Now()-start, 0)
	return &Handle{c: c, f: f}
}

// File returns the underlying file.
func (h *Handle) File() *pfs.File { return h.f }

// Pos returns the current position.
func (h *Handle) Pos() int64 { return h.pos }

// Client returns the owning client.
func (h *Handle) Client() *Client { return h.c }

// Seek repositions the handle, charging and recording a seek call.
func (h *Handle) Seek(p *sim.Proc, off int64) {
	start := p.Now()
	if h.c.par.SeekSec > 0 {
		p.Delay(h.c.par.SeekSec)
	}
	h.c.rec.Record(trace.Seek, p.Now()-start, 0)
	h.pos = off
}

// ReadAt reads n bytes at off, blocking for the positioning discipline,
// the call overhead and the striped transfer, and records the read.
func (h *Handle) ReadAt(p *sim.Proc, off, n int64) { h.call(p, off, n, false) }

// Read reads n bytes at the current position.
func (h *Handle) Read(p *sim.Proc, n int64) { h.ReadAt(p, h.pos, n) }

// WriteAt writes n bytes at off.
func (h *Handle) WriteAt(p *sim.Proc, off, n int64) { h.call(p, off, n, true) }

// Write writes n bytes at the current position.
func (h *Handle) Write(p *sim.Proc, n int64) { h.WriteAt(p, h.pos, n) }

// Flush charges the interface's flush cost.
func (h *Handle) Flush(p *sim.Proc) {
	start := p.Now()
	if h.c.par.FlushSec > 0 {
		p.Delay(h.c.par.FlushSec)
	}
	h.c.rec.Record(trace.Flush, p.Now()-start, 0)
}

// Close charges the interface's close cost.
func (h *Handle) Close(p *sim.Proc) {
	start := p.Now()
	if h.c.par.CloseSec > 0 {
		p.Delay(h.c.par.CloseSec)
	}
	h.c.rec.Record(trace.Close, p.Now()-start, 0)
}
