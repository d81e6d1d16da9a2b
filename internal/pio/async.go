package pio

import (
	"pario/internal/sim"
	"pario/internal/trace"
)

// AsyncRead is an in-flight background read issued by ReadAsync. Await
// parks its one waiter in k; the completion schedules it.
type AsyncRead struct {
	h    *Handle
	off  int64
	n    int64
	done bool
	k    sim.Step
}

// ReadAsync starts reading n bytes at off and returns immediately; the
// caller later calls Await. The read pays the full interface and transfer
// costs but is not charged to the caller; Await charges the wait time plus a
// memory-copy cost, which is the paper's measurement convention for the
// prefetching versions ("we take into account the I/O, wait and copy
// times").
//
// The read is a chain of engine callbacks — its activation, the call
// overhead, the transfer — whose terminal callback completes it; no process
// runs it, under a resilience policy too: retries and request timeouts are
// stages of the transfer's chain.
func (h *Handle) ReadAsync(off, n int64) *AsyncRead {
	eng := h.engine()
	ar := &AsyncRead{h: h, off: off, n: n}
	o := h.c.getOp(h, off, n, false)
	o.ar = ar
	o.stage = opCall
	eng.ScheduleStep(0, sim.Step{Fn: o.stepFn})
	return ar
}

// finishPrefetch completes a prefetch in its terminal callback: the
// transfer's epilogue, then a zero-delay event for the waiter Await
// parked, if any. A transfer that fails fail-stops the run instead, so
// its prefetch never gets here.
func (o *ioOp) finishPrefetch() {
	if o.x != nil {
		o.h.f.EndTransfer(o.x)
	}
	ar := o.ar
	eng := o.h.engine()
	o.h.c.putOp(o)
	ar.done = true
	if ar.k.Fn != nil || ar.k.P != nil {
		eng.ScheduleStep(0, ar.k)
	}
}

// engine digs the simulation engine out of the client's resources.
func (h *Handle) engine() *sim.Engine { return h.c.fs.Engine() }

// Await blocks until the read completes, then charges the wait plus the
// buffer copy and records a Read of n bytes. A prefetch that finished
// before Await is a hit (the overlap worked: the caller pays only the
// copy); one still in flight is a miss (the caller eats the wait). On a
// miss the copy delay is a callback chained behind the completion, so the
// caller is woken once, when the copy ends.
func (h *Handle) Await(p *sim.Proc, ar *AsyncRead) {
	start := p.Now()
	ct := float64(ar.n) * h.c.fs.Network().Params().MemCopyByteTime
	if ar.done {
		h.c.mPrefHit.Inc()
		if ct > 0 {
			p.Delay(ct)
		}
	} else {
		h.c.mPrefMiss.Inc()
		ar.k = sim.Step{P: p}
		if ct > 0 {
			eng := h.engine()
			ar.k = sim.Step{Fn: func() { eng.ScheduleStep(ct, sim.Step{P: p}) }}
		}
		p.Suspend()
	}
	h.pos = ar.off + ar.n
	h.c.rec.RecordAt(trace.Read, start, p.Now()-start, ar.off, ar.n)
}

// Prefetcher drives a sequential read stream through ReadAsync with a
// fixed number of buffers in flight — PASSION's prefetch interface. With
// depth d, the next d chunks are always being fetched while the caller
// computes on the current one.
type Prefetcher struct {
	h       *Handle
	next    int64 // file offset of the next chunk to issue
	limit   int64 // end of the stream
	chunk   int64
	pending []*AsyncRead
	depth   int
}

// NewPrefetcher builds a prefetcher reading [start, limit) in chunk-sized
// pieces with depth buffers. depth must be >= 1.
func NewPrefetcher(h *Handle, start, limit, chunk int64, depth int) *Prefetcher {
	if depth < 1 {
		panic("pio: prefetch depth must be >= 1")
	}
	if chunk <= 0 {
		panic("pio: prefetch chunk must be positive")
	}
	return &Prefetcher{h: h, next: start, limit: limit, chunk: chunk, depth: depth}
}

// fill tops up the pipeline.
func (pf *Prefetcher) fill() {
	for len(pf.pending) < pf.depth && pf.next < pf.limit {
		n := pf.chunk
		if pf.next+n > pf.limit {
			n = pf.limit - pf.next
		}
		pf.pending = append(pf.pending, pf.h.ReadAsync(pf.next, n))
		pf.next += n
	}
}

// Read returns the next chunk's size after it is in memory, or 0 at the end
// of the stream. The charged time is wait + copy.
func (pf *Prefetcher) Read(p *sim.Proc) int64 {
	pf.fill()
	if len(pf.pending) == 0 {
		return 0
	}
	head := pf.pending[0]
	pf.pending = pf.pending[1:]
	pf.h.Await(p, head)
	pf.fill()
	return head.n
}
