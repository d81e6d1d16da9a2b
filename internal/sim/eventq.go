package sim

import (
	"math"
	"math/bits"
)

// event is a scheduled occurrence. Events with equal timestamps fire in
// scheduling order (seq), which keeps the simulation deterministic.
//
// It is a tagged union: proc != nil means "wake this process" (the dominant
// event class — Delay expiries, Spawn activations, resource handoffs),
// otherwise fn is an arbitrary callback. Carrying the process pointer
// directly means the wake paths push a 32-byte record instead of
// allocating a fresh closure per wake, which a large run does millions of
// times.
type event struct {
	at   float64
	seq  uint64
	fn   func()
	proc *Proc
}

// before reports whether a fires before b in the global (at, seq) order.
//
// The pair is compared as one 128-bit unsigned number, the IEEE bits of at
// above seq, with a borrow chain: no branch on the data. That is exact only
// because every queued time is finite and non-negative with -0 stored as +0
// — for such values the bit pattern orders like the value, which is also
// what lets eventQueue key its buckets on those bits — and the kernel
// makes that an invariant: schedule rejects NaN and ±Inf, and the public
// entry points add a non-negative delay to a clock that starts at +0, so
// a -0 delay yields +0.
func (a *event) before(b *event) bool {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(math.Float64bits(a.at), math.Float64bits(b.at), borrow)
	return borrow != 0
}

// eventQueue is a monotone radix queue (Ahuja, Mehlhorn, Orlin and Tarjan,
// "Faster algorithms for the shortest path problem", JACM 1990) of the
// events that have not yet fired, keyed on the IEEE bits of their time.
//
// It owns the clock: base is the bits of the current time, and only pop
// moves it, to the time of the event it returns. An event whose key differs
// from base first in bit b-1 sits in bucket b = bits.Len64(key^base), so
// bucket 0 holds events at the current instant and every key in bucket b is
// below every key in bucket b+1. Keys are non-negative, so bit 63 never
// differs and 64 buckets cover them all. Pop takes the head of bucket 0;
// when bucket 0 is empty it takes the lowest non-empty bucket, whose
// minimum key (each bucket tracks it) becomes base, and either pops its
// lone entry directly or moves its entries, in stored order, into lower
// buckets around that minimum — all of the entries at the minimum land in
// bucket 0. Each entry only ever moves down, so a push or pop costs
// amortized O(log C) bit operations for a key range C, with none of a
// comparison heap's data-dependent branches.
//
// Every bucket is a FIFO kept in seq order: pushes carry the largest seq so
// far and append, and a redistribution moves a bucket into empty lower ones
// as subsequences. Events at one time therefore leave bucket 0 in seq
// order, which keeps the global (at, seq) firing order exact.
//
// Buckets are singly linked lists through one node arena with a free list,
// so the whole queue grows like a single slice and a redistribution
// relinks nodes rather than copying events. Node 0 is never used, so a
// free-list head of 0 means the list is empty.
type eventQueue struct {
	base    uint64  // math.Float64bits of the current time
	mask    uint64  // bit b set iff bucket b is non-empty
	nodes   []qnode // arena; nodes[0] is unused
	free    int32   // free-list head
	buckets [64]bucket
}

// bucket is one FIFO list of the queue. Its fields are meaningful only
// while its mask bit is set, so emptying a bucket clears just the bit.
type bucket struct {
	head, tail int32
	min        uint64 // the smallest key in the list
}

type qnode struct {
	ev   event
	next int32
}

// queueArena is the arena's starting capacity: a queue holds a few dozen
// events at most on the paper's workloads, so one allocation usually
// covers an engine's whole run.
const queueArena = 64

// push inserts e. Its time must not be before the current one.
func (q *eventQueue) push(e event) {
	i := q.free
	if i != 0 {
		n := &q.nodes[i]
		q.free = n.next
		n.ev = e
	} else {
		if q.nodes == nil {
			q.nodes = make([]qnode, 1, queueArena)
		}
		i = int32(len(q.nodes))
		q.nodes = append(q.nodes, qnode{ev: e})
	}
	q.link(i, math.Float64bits(e.at))
}

// link appends node i, whose key is k, to its bucket. A list ends at its
// tail, so the tail's next link is never read.
func (q *eventQueue) link(i int32, k uint64) {
	b := bits.Len64(k^q.base) & 63 // keys are non-negative: bit 63 never differs
	bk := &q.buckets[b]
	if q.mask&(1<<b) != 0 {
		q.nodes[bk.tail].next = i
		bk.min = min(bk.min, k)
	} else {
		bk.head = i
		bk.min = k
		q.mask |= 1 << b
	}
	bk.tail = i
}

// head0 returns the earliest event at the current instant, or nil.
func (q *eventQueue) head0() *event {
	if q.mask&1 == 0 {
		return nil
	}
	return &q.nodes[q.buckets[0].head].ev
}

// pop removes and returns the earliest event, moving the clock to it. It
// reports false when the queue is empty.
func (q *eventQueue) pop() (event, bool) {
	if q.mask&1 == 0 {
		if q.mask == 0 {
			return event{}, false
		}
		b := bits.TrailingZeros64(q.mask) & 63
		q.mask &^= 1 << b
		bk := &q.buckets[b]
		q.base = bk.min
		if bk.head == bk.tail {
			// A lone entry is the bucket's minimum: no redistribution.
			return q.release(bk.head), true
		}
		q.spill(bk.head, bk.tail)
	}
	return q.pop0(), true
}

// spill moves the list from node h to node t, in order, into the buckets
// below the one it came from, around base, its minimum key.
func (q *eventQueue) spill(h, t int32) {
	for i := h; ; {
		n := &q.nodes[i]
		next := n.next
		q.link(i, math.Float64bits(n.ev.at))
		if i == t {
			return
		}
		i = next
	}
}

// pop0 removes and returns the head of bucket 0, which must be non-empty.
func (q *eventQueue) pop0() event {
	h := q.buckets[0].head
	if h == q.buckets[0].tail {
		q.mask &^= 1
	} else {
		q.buckets[0].head = q.nodes[h].next
	}
	return q.release(h)
}

// release returns node i to the free list and its event to the caller.
func (q *eventQueue) release(i int32) event {
	n := &q.nodes[i]
	e := n.ev
	n.ev.fn, n.ev.proc = nil, nil // for GC
	n.next = q.free
	q.free = i
	return e
}

// drop discards every pending event, keeping the clock.
func (q *eventQueue) drop() {
	*q = eventQueue{base: q.base}
}

// eventRing is a growable circular FIFO holding the engine's same-instant
// lane: every event scheduled for the current virtual time. Those events
// already arrive in (at, seq) order — at equals now for all of them and seq
// is assigned monotonically — so a ring preserves the exact firing order
// while keeping the most common scheduling operation (zero-delay wakeups
// and grants, ScheduleStep(0, …)) a plain FIFO append, off the radix queue.
//
// The capacity is always a power of two so the index math is a mask.
type eventRing struct {
	buf  []event
	head int
	size int
}

func (r *eventRing) push(e event) {
	if r.size == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.size)&(len(r.buf)-1)] = e
	r.size++
}

// pop removes and returns the oldest event. It must not be called on an
// empty ring.
func (r *eventRing) pop() event {
	e := r.buf[r.head]
	r.buf[r.head] = event{} // release fn/proc for GC
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.size--
	return e
}

// peek returns the oldest event without removing it. It must not be called
// on an empty ring.
func (r *eventRing) peek() *event {
	return &r.buf[r.head]
}

func (r *eventRing) grow() {
	n := len(r.buf) * 2
	if n == 0 {
		n = 64
	}
	buf := make([]event, n)
	for i := 0; i < r.size; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = buf
	r.head = 0
}
