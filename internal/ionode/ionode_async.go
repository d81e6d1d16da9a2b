// Asynchronous access path: the event-driven twin of Node.Access.
//
// Every stage of a request — CPU grant, server overhead, cache-space wait,
// cache copy, disk queueing and service — runs as an engine event on a pooled
// continuation, with no process involved. The stages are placed at
// exactly the (time, sequence) positions where the blocking path parks and
// wakes a process, so a simulation driven through AccessAsync produces
// byte-identical output to one driven through Access. That equivalence is
// what lets the hot I/O path shed the process handoffs that dominate the
// kernel's wall-clock profile.
package ionode

import (
	"fmt"

	"pario/internal/disk"
	"pario/internal/sim"
)

// iop stages. Each value names the work the next stepFn invocation performs.
const (
	iopCPUGrant  int8 = iota // CPU granted: start the server-overhead delay
	iopCPUDone               // overhead served: release CPU, dispatch to disk/cache
	iopCacheWait             // cache space may have freed: re-check the bound
	iopCopyDone              // cache copy finished: start the drain, continue caller
	iopAfterDisk             // disk service finished (Fn path): close accounting
)

// iop is the pooled continuation state of one AccessAsync request. stepFn is
// bound once at allocation, so steady-state requests allocate nothing.
type iop struct {
	n         *Node
	d         *disk.Disk
	off, size int64
	write     bool
	cached    bool
	errp      *error
	k         sim.Step
	stage     int8
	stepFn    func()
}

func (n *Node) getIop() *iop {
	if ln := len(n.iops); ln > 0 {
		o := n.iops[ln-1]
		n.iops = n.iops[:ln-1]
		return o
	}
	o := &iop{n: n}
	o.stepFn = o.step
	return o
}

func (n *Node) putIop(o *iop) {
	o.d = nil
	o.errp = nil
	o.k = sim.Step{}
	n.iops = append(n.iops, o)
}

// AccessAsync services one request without a blocking process. Semantics,
// accounting, and event placement match Access exactly; see the package-level
// comment of this file. *errp must be cleared by the caller beforehand; it is
// set only on failure, before the continuation runs.
//
// The continuation k may run inline, before AccessAsync returns (a crashed
// node refuses work with no events, like the blocking path's immediate error
// return), so callers must invoke AccessAsync in tail position.
//
// Terminal (k.P) requests split the epilogue with the caller, mirroring what
// a blocking caller does inline after its final wait:
//   - read or uncached write: the wake is the disk's end-of-service event;
//     the woken process must call the disk's FinishAccess (unless *errp is
//     set) and then NoteComplete.
//   - cached write: the wake is the end of the cache copy; the woken process
//     must call StartDrain. The drain closes the inflight accounting.
func (n *Node) AccessAsync(diskIdx int, off, size int64, write bool, errp *error, k sim.Step) {
	if diskIdx < 0 || diskIdx >= len(n.disks) {
		panic(fmt.Sprintf("ionode %s: disk index %d out of range", n.name, diskIdx))
	}
	if n.crashed {
		if n.mDropped == nil {
			n.mDropped = n.eng.Metrics().Counter("ionode.dropped_requests")
		}
		n.mDropped.Inc()
		*errp = fmt.Errorf("%s: %w", n.name, ErrCrashed)
		if k.Fn != nil {
			k.Fn() // inline, like the blocking path's immediate error return
		} else {
			n.eng.ScheduleStep(0, k)
		}
		return
	}
	n.requests++
	n.mRequests.Inc()
	n.mQDepth.Observe(n.eng.Now(), float64(n.mInflight.Add(1)))
	o := n.getIop()
	o.d = n.disks[diskIdx]
	o.off, o.size, o.write, o.errp, o.k = off, size, write, errp, k
	o.cached = write && n.par.CacheBytes > 0
	if n.par.ServerOverhead > 0 {
		o.stage = iopCPUGrant
		if n.cpu.AcquireFn(o.stepFn) {
			o.step()
		}
		return
	}
	o.afterCPU()
}

// step advances the continuation by one stage. It is the single callback the
// event queue holds for this request.
func (o *iop) step() {
	switch o.stage {
	case iopCPUGrant:
		o.stage = iopCPUDone
		o.n.eng.ScheduleStep(o.n.par.ServerOverhead, sim.Step{Fn: o.stepFn})
	case iopCPUDone:
		o.n.cpu.Release()
		o.afterCPU()
	case iopCacheWait:
		o.cacheWait()
	case iopCopyDone:
		o.n.startDrain(o.d, o.off, o.size)
		n, k := o.n, o.k
		n.putIop(o)
		k.Fn()
	case iopAfterDisk:
		n, k := o.n, o.k
		n.mQDepth.Observe(n.eng.Now(), float64(n.mInflight.Add(-1)))
		n.putIop(o)
		k.Fn()
	}
}

// afterCPU dispatches past the server overhead: to the disk for reads and
// uncached writes, to the write-behind cache otherwise.
func (o *iop) afterCPU() {
	n := o.n
	if !o.cached {
		if o.k.P != nil {
			// Terminal: the disk's end-of-service event wakes the issuer
			// directly; inflight accounting closes in the caller's epilogue
			// via NoteComplete.
			d, off, size, write, errp, k := o.d, o.off, o.size, o.write, o.errp, o.k
			n.putIop(o)
			d.AccessAsync(off, size, write, errp, k)
			return
		}
		o.stage = iopAfterDisk
		o.d.AccessAsync(o.off, o.size, o.write, o.errp, sim.Step{Fn: o.stepFn})
		return
	}
	o.cacheWait()
}

// cacheWait enforces the dirty-bytes bound, re-arming and waiting on the
// cache-space signal exactly like the blocking path's wait loop.
func (o *iop) cacheWait() {
	n := o.n
	for n.dirty+o.size > n.par.CacheBytes && n.dirty > 0 {
		if n.cacheSpace == nil || n.cacheSpace.Fired() {
			n.cacheSpace = sim.NewSignal(n.eng)
		}
		o.stage = iopCacheWait
		if n.cacheSpace.WaitFn(o.stepFn) {
			return
		}
		// Already fired: continue inline, like WaitSignal on a fired signal.
	}
	n.dirty += o.size
	n.mWriteback.Add(o.size)
	c := float64(o.size) * n.par.CacheCopyByteTime
	if o.k.P != nil {
		// Terminal: the end of the cache copy wakes the issuer; the caller's
		// epilogue starts the drain (StartDrain), as the blocking path does
		// inline after its copy delay.
		k := o.k
		n.putIop(o)
		n.eng.ScheduleStep(c, k)
		return
	}
	if c > 0 {
		o.stage = iopCopyDone
		n.eng.ScheduleStep(c, sim.Step{Fn: o.stepFn})
		return
	}
	o.stage = iopCopyDone
	o.step()
}

// drainOp is the pooled continuation of one write-behind drain — the
// event-driven twin of the blocking path's spawned drain process.
type drainOp struct {
	n         *Node
	d         *disk.Disk
	off, size int64
	err       error
	startFn   func()
	afterFn   func()
}

func (n *Node) getDrainOp() *drainOp {
	if ln := len(n.drains); ln > 0 {
		o := n.drains[ln-1]
		n.drains = n.drains[:ln-1]
		return o
	}
	o := &drainOp{n: n}
	o.startFn = o.start
	o.afterFn = o.after
	return o
}

func (n *Node) putDrainOp(o *drainOp) {
	o.d = nil
	o.err = nil
	n.drains = append(n.drains, o)
}

// StartDrain queues the background disk write behind a cached write whose
// terminal AccessAsync completed: the caller's half of the split epilogue.
// The kick-off event lands where the blocking path's drain-process activation
// does, so the event streams stay identical.
func (n *Node) StartDrain(diskIdx int, off, size int64) {
	n.startDrain(n.disks[diskIdx], off, size)
}

func (n *Node) startDrain(d *disk.Disk, off, size int64) {
	o := n.getDrainOp()
	o.d, o.off, o.size = d, off, size
	n.eng.ScheduleStep(0, sim.Step{Fn: o.startFn})
}

func (o *drainOp) start() {
	o.err = nil
	o.d.AccessAsync(o.off, o.size, true, &o.err, sim.Step{Fn: o.afterFn})
}

func (o *drainOp) after() {
	n := o.n
	if o.err != nil {
		// The client already saw the write complete into the cache; losing
		// the drain is unreported data loss, so it fail-stops the run rather
		// than vanishing — same policy as the blocking drain's Abort.
		n.eng.AbortRun(fmt.Errorf("ionode %s: write-behind drain: %w", n.name, o.err))
		n.putDrainOp(o)
		return
	}
	n.dirty -= o.size
	n.mQDepth.Observe(n.eng.Now(), float64(n.mInflight.Add(-1)))
	if n.cacheSpace != nil && !n.cacheSpace.Fired() {
		n.cacheSpace.Fire()
	}
	n.putDrainOp(o)
}

// WriteBehind reports whether writes go through the write-behind cache —
// static per node, which lets callers of terminal AccessAsync requests pick
// the matching epilogue ahead of time.
func (n *Node) WriteBehind() bool { return n.par.CacheBytes > 0 }

// NoteComplete closes the inflight accounting of a terminal AccessAsync read
// or uncached write: the caller's half of the split epilogue, at the instant
// the blocking path would have observed the completion inline.
func (n *Node) NoteComplete() {
	n.mQDepth.Observe(n.eng.Now(), float64(n.mInflight.Add(-1)))
}
