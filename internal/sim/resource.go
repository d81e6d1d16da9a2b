package sim

// waiter is one queued claim on a resource: the continuation its grant
// runs, and the time it queued, for wait accounting.
type waiter struct {
	k   Step
	enq float64
}

// Resource is a server with fixed capacity and a FIFO queue, the standard
// discrete-event building block for anything that saturates: a disk, an
// I/O-node CPU, a network interface, a library's buffer pool, a shared
// file pointer. Claim takes a unit for a continuation; Release hands a
// unit to the longest-waiting claim. The continuation is a Step, so a
// queued grant continues an event chain with a callback and a process
// parked in Suspend with its own wake: either way the grant is one event,
// in the (time, sequence) slot where the claimant's code next runs.
//
// Resource also accumulates the total time claims spent queued, which the
// queueing oracles check against theory.
type Resource struct {
	eng   *Engine
	name  string
	cap   int
	inUse int
	// FIFO of waiting claims, head-indexed so dequeue is O(1) with no
	// element shifting; the backing array is reclaimed when it empties.
	queue   []waiter
	qhead   int
	waitSec float64 // total time claims spent queued
}

// NewResource returns a resource with the given capacity (>= 1).
func NewResource(e *Engine, name string, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{eng: e, name: name, cap: capacity}
}

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }

// Cap returns the capacity.
func (r *Resource) Cap() int { return r.cap }

// InUse returns the number of capacity units currently held.
func (r *Resource) InUse() int { return r.inUse }

// Claim takes one capacity unit for k. When a unit is free it is taken at
// once and Claim returns true: the claimant continues inline and k does
// not run. Otherwise k queues in FIFO order and Claim returns false; the
// Release that grants the unit schedules k at that instant, a callback
// for k.Fn and a wake for k.P, so a process claims with its own wake and
// Suspends on false. Either way the claimant holds a unit when its code
// next runs, and must eventually Release it.
func (r *Resource) Claim(k Step) bool {
	if r.inUse < r.cap {
		r.inUse++
		return true
	}
	r.queue = append(r.queue, waiter{k: k, enq: r.eng.Now()})
	return false
}

// Release returns one capacity unit. If claims are queued, ownership
// transfers directly to the head of the queue, whose continuation is
// scheduled at the current instant; its wait ends here and is accounted
// here.
func (r *Resource) Release() {
	if r.qhead == len(r.queue) {
		if r.inUse == 0 {
			panic("sim: Release of idle resource " + r.name)
		}
		r.inUse--
		return
	}
	head := r.queue[r.qhead]
	r.queue[r.qhead] = waiter{}
	r.qhead++
	if r.qhead == len(r.queue) {
		// Empty: reset so the backing array is reused from the start.
		r.queue = r.queue[:0]
		r.qhead = 0
	} else if r.qhead >= 32 && r.qhead*2 >= len(r.queue) {
		// Mostly dead prefix under sustained contention: compact in place
		// (amortized O(1)) instead of growing without bound.
		n := copy(r.queue, r.queue[r.qhead:])
		clear(r.queue[n:])
		r.queue = r.queue[:n]
		r.qhead = 0
	}
	// Ownership transfers: inUse is unchanged.
	r.waitSec += r.eng.Now() - head.enq
	r.eng.ScheduleStep(0, head.k)
}

// TotalWait returns the cumulative time claims spent queued.
func (r *Resource) TotalWait() float64 { return r.waitSec }
