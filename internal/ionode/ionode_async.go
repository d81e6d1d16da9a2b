// The request path of an I/O node.
//
// Every stage of a request — CPU grant, server overhead, cache-space wait,
// cache copy, disk queueing and service — runs as an engine event on a pooled
// continuation, with no process involved. A stage that is not the request's
// last runs as a callback; the last one is the caller's continuation, a
// callback or the wake of a process parked in Suspend. Access is this path
// driven from a process.
package ionode

import (
	"errors"
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
	iopAfterDisk             // disk service finished or failed (Fn path): close accounting
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
	k, fail   sim.Step
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
	o.k, o.fail = sim.Step{}, sim.Step{}
	n.iops = append(n.iops, o)
}

// AccessAsync services one request as engine events. k runs when it
// completes; on failure *errp is set and fail runs instead. *errp must be
// cleared by the caller beforehand.
//
// A failure costs no event of its own: a crashed node refuses the request
// at entry and a failed drive errs when the request reaches the head of its
// queue, and fail.Fn runs inline at that instant — before AccessAsync
// returns for a refusal, so callers must invoke AccessAsync in tail
// position. A fail.P wake is scheduled at that instant.
//
// Terminal (k.P) requests split the epilogue with the caller: the woken
// process must call EndAccess, which is the release and accounting a
// request continuing through a callback does before k.Fn runs.
//   - read or uncached write: the wake is the disk's end-of-service event.
//   - cached write: the wake is the end of the cache copy; EndAccess starts
//     the drain, which closes the inflight accounting.
//
// A failed terminal request must be closed by EndAccess with its error too.
func (n *Node) AccessAsync(diskIdx int, off, size int64, write bool, errp *error, k, fail sim.Step) {
	if diskIdx < 0 || diskIdx >= len(n.disks) {
		panic(fmt.Sprintf("ionode %s: disk index %d out of range", n.name, diskIdx))
	}
	if n.crashed {
		if n.mDropped == nil {
			n.mDropped = n.eng.Metrics().Counter("ionode.dropped_requests")
		}
		n.mDropped.Inc()
		*errp = fmt.Errorf("%s: %w", n.name, ErrCrashed)
		n.eng.Continue(fail)
		return
	}
	n.requests++
	n.mRequests.Inc()
	// The queue-depth series tracks requests outstanding against the I/O
	// partition, from arrival at the node until the backing disk write or
	// read completes (a cached write stays in flight until its drain
	// finishes — dirty data is still queued work).
	n.mQDepth.Observe(n.eng.Now(), float64(n.mInflight.Add(1)))
	o := n.getIop()
	o.d = n.disks[diskIdx]
	o.off, o.size, o.write, o.errp, o.k, o.fail = off, size, write, errp, k, fail
	o.cached = write && n.par.CacheBytes > 0
	if n.par.ServerOverhead > 0 {
		o.stage = iopCPUGrant
		if n.cpu.Claim(sim.Step{Fn: o.stepFn}) {
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
		if *o.errp != nil {
			k = o.fail
		}
		n.noteComplete()
		n.putIop(o)
		n.eng.Continue(k)
	}
}

// afterCPU dispatches past the server overhead: to the disk for reads and
// uncached writes, to the write-behind cache otherwise.
func (o *iop) afterCPU() {
	n := o.n
	if !o.cached {
		if o.k.P != nil {
			// Terminal: the disk's end-of-service event wakes the issuer
			// directly; inflight accounting closes in the caller's EndAccess.
			d, off, size, write, errp, k, fail := o.d, o.off, o.size, o.write, o.errp, o.k, o.fail
			n.putIop(o)
			d.AccessAsync(off, size, write, errp, k, fail)
			return
		}
		o.stage = iopAfterDisk
		o.d.AccessAsync(o.off, o.size, o.write, o.errp, sim.Step{Fn: o.stepFn}, sim.Step{Fn: o.stepFn})
		return
	}
	o.cacheWait()
}

// cacheWait enforces the dirty-bytes bound: while the cache is full the
// request joins the node's space waiters and re-checks when a drain frees
// space.
func (o *iop) cacheWait() {
	n := o.n
	if n.dirty+o.size > n.par.CacheBytes && n.dirty > 0 {
		o.stage = iopCacheWait
		n.spaceWaits = append(n.spaceWaits, sim.Step{Fn: o.stepFn})
		return
	}
	n.dirty += o.size
	n.mWriteback.Add(o.size)
	c := float64(o.size) * n.par.CacheCopyByteTime
	if o.k.P != nil {
		// Terminal: the end of the cache copy wakes the issuer; its
		// EndAccess starts the drain.
		k := o.k
		n.putIop(o)
		n.eng.ScheduleStep(c, k)
		return
	}
	o.stage = iopCopyDone
	if c > 0 {
		n.eng.ScheduleStep(c, sim.Step{Fn: o.stepFn})
		return
	}
	o.step()
}

// drainOp is the pooled continuation of one write-behind drain.
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

// startDrain queues the background disk write behind a cached write: one
// kick-off event, then the disk request.
func (n *Node) startDrain(d *disk.Disk, off, size int64) {
	o := n.getDrainOp()
	o.d, o.off, o.size = d, off, size
	n.eng.ScheduleStep(0, sim.Step{Fn: o.startFn})
}

func (o *drainOp) start() {
	o.err = nil
	k := sim.Step{Fn: o.afterFn}
	o.d.AccessAsync(o.off, o.size, true, &o.err, k, k)
}

func (o *drainOp) after() {
	n := o.n
	if o.err != nil {
		// The client already saw the write complete into the cache; losing
		// the drain is unreported data loss, so it fail-stops the run rather
		// than vanishing.
		n.eng.AbortRun(fmt.Errorf("ionode %s: write-behind drain: %w", n.name, o.err))
		n.putDrainOp(o)
		return
	}
	n.dirty -= o.size
	n.noteComplete()
	// Every waiter re-checks the bound in a zero-delay event of its own, in
	// the order they began waiting; those that still do not fit wait again.
	for _, k := range n.spaceWaits {
		n.eng.ScheduleStep(0, k)
	}
	clear(n.spaceWaits)
	n.spaceWaits = n.spaceWaits[:0]
	n.putDrainOp(o)
}

// EndAccess is the epilogue of a terminal AccessAsync, run by the woken
// issuer with the request's error: it releases the drive and closes the
// inflight accounting of a read or uncached write, or starts the drain of a
// cached write. A failed request only closes the accounting, unless the
// node refused it (ErrCrashed) before counting it.
func (n *Node) EndAccess(diskIdx int, off, size int64, write bool, err error) {
	switch {
	case err != nil:
		if !errors.Is(err, ErrCrashed) {
			n.noteComplete()
		}
	case write && n.par.CacheBytes > 0:
		n.startDrain(n.disks[diskIdx], off, size)
	default:
		n.disks[diskIdx].FinishAccess()
		n.noteComplete()
	}
}

// noteComplete closes the inflight accounting of one request.
func (n *Node) noteComplete() {
	n.mQDepth.Observe(n.eng.Now(), float64(n.mInflight.Add(-1)))
}
