package sim

import (
	"math"
	"math/bits"
)

// event is a scheduled occurrence. Events with equal timestamps fire in
// scheduling order (seq), which keeps the simulation deterministic.
//
// It is a tagged union: proc != nil means "wake this process" (the dominant
// event class — Delay expiries, Spawn activations, resource handoffs, signal
// releases), otherwise fn is an arbitrary callback. Carrying the process
// pointer directly means the wake paths push a 32-byte record instead of
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
// — for such values the bit pattern orders like the value — and the kernel
// makes that an invariant: schedule rejects NaN and ±Inf, the public entry
// points reject negative delays and past times, and At normalises -0.
func (a *event) before(b *event) bool {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(math.Float64bits(a.at), math.Float64bits(b.at), borrow)
	return borrow != 0
}

// eventHeap is a 4-ary min-heap of events ordered by (at, seq). It is
// hand-rolled rather than using container/heap to avoid interface boxing on
// the hot path, and 4-ary rather than binary because the shallower tree
// halves the levels touched per operation and keeps sibling comparisons
// inside one or two cache lines (4 events × 32 bytes).
//
// Zero-delay events never reach the heap — they take the engine's
// same-instant ring (eventRing below) — so the heap only pays its O(log n)
// for events that genuinely move the clock.
type eventHeap struct {
	ev []event
}

func (h *eventHeap) Len() int { return len(h.ev) }

// push inserts e, moving a hole up from the new leaf instead of swapping.
func (h *eventHeap) push(e event) {
	h.ev = append(h.ev, event{})
	i := len(h.ev) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !e.before(&h.ev[parent]) {
			break
		}
		h.ev[i] = h.ev[parent]
		i = parent
	}
	h.ev[i] = e
}

// pop removes and returns the earliest event. It must not be called on an
// empty heap.
//
// It uses Floyd's bottom-up deletion: the hole left at the root moves down
// to a leaf along the path of smallest children, with no comparison against
// the element being re-inserted, and the former last element then sifts up
// from there. The last element of a heap almost always belongs near the
// bottom, so the sift-up stops after a step or two, where the classic
// sift-down compares it against every level's minimum.
func (h *eventHeap) pop() event {
	top := h.ev[0]
	n := len(h.ev) - 1
	x := h.ev[n]
	h.ev[n] = event{} // release fn/proc for GC
	h.ev = h.ev[:n]
	if n == 0 {
		return top
	}
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		least := first
		end := min(first+4, n)
		for c := first + 1; c < end; c++ {
			if h.ev[c].before(&h.ev[least]) {
				least = c
			}
		}
		h.ev[i] = h.ev[least]
		i = least
	}
	for i > 0 {
		parent := (i - 1) / 4
		if !x.before(&h.ev[parent]) {
			break
		}
		h.ev[i] = h.ev[parent]
		i = parent
	}
	h.ev[i] = x
	return top
}

// eventRing is a growable circular FIFO holding the engine's same-instant
// lane: every event scheduled for the current virtual time. Those events
// already arrive in (at, seq) order — at equals now for all of them and seq
// is assigned monotonically — so a ring preserves the exact firing order the
// heap would produce while making the most common scheduling operation
// (zero-delay wakeups and grants, After(0, …)) O(1) instead of O(log n).
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
