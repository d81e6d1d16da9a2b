package pio

import (
	"fmt"

	"pario/internal/mp"
	"pario/internal/ooc"
	"pario/internal/pfs"
	"pario/internal/sim"
	"pario/internal/trace"
)

// tagFunnel is the message tag space used by the funnel protocol; it is far
// above any application tag.
const tagFunnel = 1 << 20

// Funnel is a Chameleon-style I/O library: every rank ships its data to
// rank 0 in small chunks, and rank 0 performs all file requests, one small
// non-contiguous write per chunk. The paper (§4.6) identifies exactly these
// two properties — small chunk granularity and the single-node bottleneck —
// as the cause of the unoptimized AST application's I/O time.
type Funnel struct {
	comm  *mp.Comm
	h     *Handle // open at rank 0's node
	chunk int64   // maximum bytes per shipped chunk / file request
	recs  []*trace.Recorder
	// callSec is the library cost charged to the owning rank for each
	// chunk it hands to the funnel (buffer packing, bookkeeping).
	callSec float64

	runs [][]ooc.Run

	// Rank 0's posted writes. window is the library's buffer pool,
	// bounding the posts in flight; inflight counts them, and drain is
	// rank 0 while it waits for the last of them to land.
	window   *sim.Resource
	inflight int
	drain    *sim.Proc
	posts    []*post // free list
}

// post is one chunk write posted by rank 0: a pooled chain on
// pfs.File.BeginTransfer, started by a kick-off event and completed by the
// transfer's callback terminal. No process runs it.
type post struct {
	fn      *Funnel
	off, n  int64
	start   float64
	x       *pfs.Xfer
	beginFn func()
	landFn  func()
}

// NewFunnel builds a funnel writing through h, which must belong to a
// client on rank 0's node. chunk is the library's internal buffer size.
func NewFunnel(comm *mp.Comm, h *Handle, chunk int64) (*Funnel, error) {
	if chunk <= 0 {
		return nil, fmt.Errorf("pio: funnel chunk %d must be positive", chunk)
	}
	if h.Client().Node() != comm.NodeOf(0) {
		return nil, fmt.Errorf("pio: funnel handle must live on rank 0's node")
	}
	return &Funnel{comm: comm, h: h, chunk: chunk, runs: make([][]ooc.Run, comm.Size()),
		window: sim.NewResource(h.engine(), "funnel.window", funnelWindow)}, nil
}

// SetRecorders supplies per-rank recorders so that non-zero ranks' library
// time is charged to the right process. Without them, all time lands on the
// handle's recorder.
func (fn *Funnel) SetRecorders(recs []*trace.Recorder) { fn.recs = recs }

// SetCallCost sets the per-chunk library cost charged to the chunk's owner
// (buffer packing and per-call bookkeeping on the compute node).
func (fn *Funnel) SetCallCost(sec float64) {
	if sec < 0 {
		panic("pio: negative funnel call cost")
	}
	fn.callSec = sec
}

func (fn *Funnel) recorderFor(rank int) *trace.Recorder {
	if fn.recs != nil && rank < len(fn.recs) && fn.recs[rank] != nil {
		return fn.recs[rank]
	}
	return fn.h.Client().Recorder()
}

// chunksOf splits a run into chunk-sized pieces.
func (fn *Funnel) chunksOf(r ooc.Run) []ooc.Run {
	var out []ooc.Run
	for off, rem := r.Off, r.Len; rem > 0; {
		n := fn.chunk
		if n > rem {
			n = rem
		}
		out = append(out, ooc.Run{Off: off, Len: n})
		off += n
		rem -= n
	}
	return out
}

// Write performs one collective funnelled write: every rank must call it
// with the runs it owns. Non-zero ranks ship chunks to rank 0 and have the
// shipping time charged as Write in their own recorders; rank 0 receives
// and performs each chunk as a separate positioned write.
func (fn *Funnel) Write(p *sim.Proc, rank int, runs []ooc.Run) {
	fn.runs[rank] = runs
	fn.comm.Barrier(p, rank)

	if rank != 0 {
		for _, run := range runs {
			for _, ch := range fn.chunksOf(run) {
				start := p.Now()
				if fn.callSec > 0 {
					p.Delay(fn.callSec)
				}
				fn.comm.Send(p, rank, 0, tagFunnel+rank, ch.Len)
				// Time spent inside the library counts as the process's
				// I/O time, as an application-level tracer would see it.
				// Bytes are recorded where they reach the file system
				// (rank 0), so volumes are not double-counted.
				fn.recorderFor(rank).Record(trace.Write, p.Now()-start, 0)
			}
		}
		fn.comm.Barrier(p, rank)
		return
	}

	// Rank 0: write local runs, then drain each peer in rank order. The
	// staged run lists tell rank 0 how many chunks to expect; peers clear
	// nothing until the closing barrier, so the lists stay valid.
	//
	// Writes are posted asynchronously with a bounded in-flight window
	// (the library's internal buffer pool): rank 0's loop costs the post
	// path, while the file system drains the posts in parallel across the
	// I/O nodes. All posts are awaited before the closing barrier.
	for _, run := range fn.runs[0] {
		for _, ch := range fn.chunksOf(run) {
			if fn.callSec > 0 {
				p.Delay(fn.callSec) // rank 0 packs its own chunks too
			}
			fn.post(p, ch)
		}
	}
	for r := 1; r < fn.comm.Size(); r++ {
		for _, run := range fn.runs[r] {
			for _, ch := range fn.chunksOf(run) {
				fn.comm.Recv(p, 0, r, tagFunnel+r)
				fn.post(p, ch)
			}
		}
	}
	if fn.inflight > 0 {
		fn.drain = p
		p.Suspend() // the last post to land wakes us
	}
	for r := range fn.runs {
		fn.runs[r] = nil
	}
	fn.comm.Barrier(p, rank)
}

// funnelWindow is the number of posted writes the funnel keeps in flight
// at rank 0 before the post path blocks.
const funnelWindow = 64

// post claims a window slot for ch, suspending rank 0 while the window is
// full, and posts the write: its chain starts at a kick-off event.
func (fn *Funnel) post(p *sim.Proc, ch ooc.Run) {
	if !fn.window.Claim(sim.Step{P: p}) {
		p.Suspend() // a landing post hands us its slot
	}
	var o *post
	if k := len(fn.posts); k > 0 {
		o = fn.posts[k-1]
		fn.posts = fn.posts[:k-1]
	} else {
		o = &post{fn: fn}
		o.beginFn, o.landFn = o.begin, o.land
	}
	o.off, o.n = ch.Off, ch.Len
	fn.inflight++
	p.Engine().ScheduleStep(0, sim.Step{Fn: o.beginFn})
}

// begin starts the post's transfer.
func (o *post) begin() {
	h := o.fn.h
	o.start = h.engine().Now()
	o.x = h.File().BeginTransfer(h.Client().Node(), o.off, o.n, true, sim.Step{Fn: o.landFn})
}

// land is the transfer's terminal: close it, record the write, free its
// window slot, and wake rank 0 if it waits for this, the last post.
func (o *post) land() {
	fn, h := o.fn, o.fn.h
	h.File().EndTransfer(o.x)
	h.Client().Recorder().Record(trace.Write, h.engine().Now()-o.start, o.n)
	fn.window.Release()
	o.x = nil
	fn.posts = append(fn.posts, o)
	fn.inflight--
	if fn.inflight == 0 && fn.drain != nil {
		p := fn.drain
		fn.drain = nil
		p.Engine().ScheduleStep(0, sim.Step{P: p})
	}
}

// Read performs one collective funnelled read — the restart path: rank 0
// reads every chunk from the file and ships each to its owner. Every rank
// must call it with the runs it owns. Owners' receive time is charged as
// Read in their recorders; rank 0's file reads land on its recorder.
func (fn *Funnel) Read(p *sim.Proc, rank int, runs []ooc.Run) {
	fn.runs[rank] = runs
	fn.comm.Barrier(p, rank)

	if rank != 0 {
		for _, run := range runs {
			for _, ch := range fn.chunksOf(run) {
				start := p.Now()
				fn.comm.Recv(p, rank, 0, tagFunnel+rank)
				if fn.callSec > 0 {
					p.Delay(fn.callSec) // unpack into the caller's buffers
				}
				fn.recorderFor(rank).Record(trace.Read, p.Now()-start, 0)
				_ = ch
			}
		}
		fn.comm.Barrier(p, rank)
		return
	}

	// Rank 0: read own runs, then serve each peer in rank order.
	for _, run := range fn.runs[0] {
		for _, ch := range fn.chunksOf(run) {
			fn.h.ReadAt(p, ch.Off, ch.Len)
			if fn.callSec > 0 {
				p.Delay(fn.callSec)
			}
		}
	}
	for r := 1; r < fn.comm.Size(); r++ {
		for _, run := range fn.runs[r] {
			for _, ch := range fn.chunksOf(run) {
				fn.h.ReadAt(p, ch.Off, ch.Len)
				fn.comm.Send(p, 0, r, tagFunnel+r, ch.Len)
			}
		}
	}
	for r := range fn.runs {
		fn.runs[r] = nil
	}
	fn.comm.Barrier(p, rank)
}
