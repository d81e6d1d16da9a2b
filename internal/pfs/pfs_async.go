// Event-driven transfer path: the twin of the blocking serveNode/doChunk
// pipeline.
//
// BeginTransfer drives every chunk — request message, NIC contention, device
// access, data reply — as engine events on a pooled continuation (chunkOp),
// finishing with one terminal event: a wake of the issuing process, or a
// callback when the issuer is itself an event chain (pio's prefetch). It
// never blocks, so it can run inside a callback. EndTransfer is the epilogue
// the terminal runs. Each event is placed at exactly the
// (time, sequence) position where the blocking path parks and wakes a
// process, so the two paths produce byte-identical simulation output; the
// difference is purely mechanical — no process handoffs on the hot path,
// which is where the kernel's wall-clock profile says the time goes.
//
// The equivalence argument, stage by stage:
//   - Blocking chunks on one node run inline on one process; here they run
//     inline on one chunkOp, scheduling the same delays in the same order.
//   - A multi-node transfer spawns one process per node (one activation
//     event each) and joins on a WaitGroup (one wake); here each node gets
//     one kick-off event and the last chain to finish wakes the issuer.
//   - The final timed event of a single-node transfer is the terminal
//     itself, replacing the blocking path's last delay-wake one for one;
//     EndTransfer then runs the epilogue (release/accounting calls the
//     blocking path makes inline after that delay).
//
// The path is only taken when it cannot diverge (FS.Chained): no resilience
// policy (the timeout/retry machinery is process-based) and parameters under
// which the terminal event of every chunk is statically known (FS.asyncOK).
package pfs

import (
	"errors"

	"pario/internal/ionode"
	"pario/internal/sim"
)

// chunkOp stages: what the next stepFn invocation does.
const (
	cStart           int8 = iota // kick-off event of a multi-node chain
	cAtNIC                       // request setup paid: contend for the I/O-node NIC
	cNICGranted                  // I/O-node NIC granted: start the bandwidth delay
	cXferDone                    // request delivered: issue the device access
	cAccessDone                  // device access finished (callback path)
	cReplyAtNIC                  // reply setup paid: contend for the client NIC
	cReplyNICGranted             // client NIC granted: start the reply bandwidth delay
	cReplyDone                   // reply delivered: chunk complete
)

// Terminal-epilogue kinds of a single-node transfer: which release/accounting
// calls EndTransfer must make, mirroring what the blocking path does inline
// after its final delay.
const (
	kindNone      int8 = iota // nothing pending (local reply memcpy)
	kindCacheCopy             // cached write: start the write-behind drain
	kindDiskWrite             // uncached write: release the disk, close inflight
	kindDiskRead              // local zero-cost reply: release disk, close inflight, account reply
	kindReplyNIC              // remote read: release the client NIC
)

// chunkOp drives an ordered chunk list against one I/O node. stepFn is bound
// once at allocation and ops cycle through a per-FS free list, so a
// steady-state transfer allocates only what the blocking path's shared
// preamble does.
type chunkOp struct {
	f          *File
	x          *Xfer
	clientNode int
	list       []Chunk
	idx        int
	write      bool
	terminal   bool    // single-node transfer: the last chunk ends with x.term
	xfer       float64 // bandwidth cost of the in-flight message, sampled at send time
	onNIC      bool    // the in-flight message occupies a NIC (remote)
	err        error
	kind       int8
	stage      int8
	stepFn     func()
}

func (fs *FS) getChunkOp() *chunkOp {
	if n := len(fs.chunkOps); n > 0 {
		o := fs.chunkOps[n-1]
		fs.chunkOps = fs.chunkOps[:n-1]
		return o
	}
	o := &chunkOp{}
	o.stepFn = o.step
	return o
}

func (fs *FS) putChunkOp(o *chunkOp) {
	o.f = nil
	o.x = nil
	o.list = nil
	o.err = nil
	fs.chunkOps = append(fs.chunkOps, o)
}

// Chained reports whether transfers run as event chains: BeginTransfer is
// usable and Transfer wakes its caller once. It holds when no resilience
// policy is set and the node parameters give every chunk a statically known
// terminal event.
func (fs *FS) Chained() bool { return fs.resil == nil && fs.asyncOK }

// BeginTransfer starts moving [off, off+size) between the memory of the
// compute node with topology index clientNode and the file, and returns at
// once: it runs Transfer's preamble and starts the chunk chains, and never
// blocks, so it may be called from an event callback. The transfer's last
// event is term: a wake of a process parked in Suspend, or a callback. Either
// must then call EndTransfer exactly once. size must be positive and the FS
// Chained.
func (f *File) BeginTransfer(clientNode int, off, size int64, write bool, term sim.Step) *Xfer {
	fs := f.fs
	if size <= 0 || !fs.Chained() {
		panic("pfs: BeginTransfer needs a positive size on a chained FS")
	}
	x := f.prepare(off, size, write)
	x.term = term
	if len(x.order) == 1 {
		o := fs.getChunkOp()
		o.f, o.x, o.clientNode = f, x, clientNode
		o.list, o.idx, o.write = x.lists[0], 0, write
		o.terminal = true
		o.kind = kindNone
		x.op = o
		o.startChunk()
		return x
	}
	x.remaining = len(x.order)
	for i := range x.order {
		o := fs.getChunkOp()
		o.f, o.x, o.clientNode = f, x, clientNode
		o.list, o.idx, o.write = x.lists[i], 0, write
		o.terminal = false
		o.stage = cStart
		// One kick-off event per node chain, where the blocking path
		// schedules one process activation per node.
		fs.eng.ScheduleStep(0, sim.Step{Fn: o.stepFn})
	}
	return x
}

// EndTransfer is the epilogue of a transfer started by BeginTransfer, run by
// its terminal: the release and accounting calls the blocking path makes
// inline after its final delay, then the pfs.xfer_time observation. A device
// error fail-stops the run with the same structured IOError as the blocking
// path: through p.Abort when the terminal woke process p, which does not
// return, or through Engine.AbortRun when p is nil (a callback terminal), in
// which case EndTransfer returns false.
func (f *File) EndTransfer(p *sim.Proc, x *Xfer) bool {
	fs := f.fs
	fs.mXferTime.Observe((fs.eng.Now() - x.start) * 1e6)
	ok := true
	if x.op != nil {
		ok = f.finishTerminal(p, x.op)
	}
	fs.putXfer(x)
	return ok
}

// finishTerminal is the epilogue of a single-node chain, plus the
// fail-stop that serveNode performs on a device error.
func (f *File) finishTerminal(p *sim.Proc, o *chunkOp) bool {
	fs := f.fs
	c := &o.list[len(o.list)-1]
	nd := fs.nodes[c.Node]
	if o.err != nil {
		if !errors.Is(o.err, ionode.ErrCrashed) {
			// A device-level failure was accounted in flight at node entry;
			// the blocking path closes that accounting inline on the error
			// return. (A crashed node refused the request before accounting.)
			nd.NoteComplete()
		}
		err := o.err
		if fs.mAborted == nil {
			fs.mAborted = fs.eng.Metrics().Counter("pfs.aborted_ops")
		}
		fs.mAborted.Inc()
		ioerr := &IOError{Op: opName(o.write), Node: c.Node, Attempts: 1, Time: fs.eng.Now(), Err: err}
		fs.putChunkOp(o)
		if p != nil {
			p.Abort(ioerr)
		}
		fs.eng.AbortRun(ioerr)
		return false
	}
	switch o.kind {
	case kindCacheCopy:
		nd.StartDrain(c.Disk, c.DiskOff, c.Len)
	case kindDiskWrite:
		nd.Disk(c.Disk).FinishAccess()
		nd.NoteComplete()
	case kindDiskRead:
		nd.Disk(c.Disk).FinishAccess()
		nd.NoteComplete()
		fs.net.AccountMsg(c.Len) // the reply is a zero-cost local copy
	case kindReplyNIC:
		fs.net.NIC(o.clientNode).Release()
	case kindNone:
	}
	fs.putChunkOp(o)
	return true
}

// step advances the continuation by one stage. It is the single callback the
// event queue holds for this chain.
func (o *chunkOp) step() {
	switch o.stage {
	case cStart:
		o.startChunk()
	case cAtNIC:
		o.atNIC()
	case cNICGranted:
		o.nicGranted()
	case cXferDone:
		if o.onNIC {
			fs := o.f.fs
			fs.net.NIC(fs.nodeGlobal[o.list[o.idx].Node]).Release()
		}
		o.access()
	case cAccessDone:
		if o.err != nil {
			o.fail()
			return
		}
		if o.write {
			o.chunkDone()
			return
		}
		o.reply()
	case cReplyAtNIC:
		o.replyAtNIC()
	case cReplyNICGranted:
		o.replyNICGranted()
	case cReplyDone:
		if o.onNIC {
			o.f.fs.net.NIC(o.clientNode).Release()
		}
		o.chunkDone()
	}
}

// startChunk issues chunk list[idx]: account and send the request message
// (data rides along for writes), exactly as the blocking doChunk's first Send.
func (o *chunkOp) startChunk() {
	c := &o.list[o.idx]
	fs := o.f.fs
	global := fs.nodeGlobal[c.Node]
	msg := int64(RequestMsgBytes)
	if o.write {
		msg += c.Len
	}
	fs.net.AccountMsg(msg)
	setup, xfer := fs.net.SendCosts(o.clientNode, global, msg)
	if o.clientNode == global {
		// Node-local: a memory copy, no NIC.
		o.onNIC = false
		if xfer > 0 {
			o.stage = cXferDone
			fs.eng.ScheduleStep(xfer, sim.Step{Fn: o.stepFn})
			return
		}
		o.access()
		return
	}
	o.onNIC = true
	o.xfer = xfer
	if setup > 0 {
		o.stage = cAtNIC
		fs.eng.ScheduleStep(setup, sim.Step{Fn: o.stepFn})
		return
	}
	o.atNIC()
}

// atNIC contends for the destination NIC, recording the stall the blocking
// Send observes when the interface is busy.
func (o *chunkOp) atNIC() {
	fs := o.f.fs
	nic := fs.net.NIC(fs.nodeGlobal[o.list[o.idx].Node])
	if nic.InUse() >= nic.Cap() {
		fs.net.NoteStall()
	}
	o.stage = cNICGranted
	if nic.AcquireFn(o.stepFn) {
		o.nicGranted()
	}
}

func (o *chunkOp) nicGranted() {
	o.stage = cXferDone
	o.f.fs.eng.ScheduleStep(o.xfer, sim.Step{Fn: o.stepFn})
}

// access issues the device access. The last chunk of a terminal chain passes
// the transfer's terminal down as the continuation: the device layer's final
// timed event becomes the terminal, and finishTerminal runs the matching
// epilogue.
func (o *chunkOp) access() {
	c := &o.list[o.idx]
	fs := o.f.fs
	nd := fs.nodes[c.Node]
	o.err = nil
	last := o.terminal && o.idx == len(o.list)-1
	if o.write {
		if last {
			if nd.WriteBehind() {
				o.kind = kindCacheCopy
			} else {
				o.kind = kindDiskWrite
			}
			nd.AccessAsync(c.Disk, c.DiskOff, c.Len, true, &o.err, o.x.term)
			return
		}
		o.stage = cAccessDone
		nd.AccessAsync(c.Disk, c.DiskOff, c.Len, true, &o.err, sim.Step{Fn: o.stepFn})
		return
	}
	if last && o.clientNode == fs.nodeGlobal[c.Node] && fs.net.Params().MemCopyByteTime == 0 {
		// The reply would be a zero-cost local copy: the disk's end of
		// service is the chain's final timed event.
		o.kind = kindDiskRead
		nd.AccessAsync(c.Disk, c.DiskOff, c.Len, false, &o.err, o.x.term)
		return
	}
	o.stage = cAccessDone
	nd.AccessAsync(c.Disk, c.DiskOff, c.Len, false, &o.err, sim.Step{Fn: o.stepFn})
}

// reply sends the read data back to the client, as the blocking doChunk's
// second Send.
func (o *chunkOp) reply() {
	c := &o.list[o.idx]
	fs := o.f.fs
	global := fs.nodeGlobal[c.Node]
	fs.net.AccountMsg(c.Len)
	setup, xfer := fs.net.SendCosts(global, o.clientNode, c.Len)
	last := o.terminal && o.idx == len(o.list)-1
	if global == o.clientNode {
		o.onNIC = false
		if xfer > 0 {
			if last {
				o.kind = kindNone
				fs.eng.ScheduleStep(xfer, o.x.term)
				return
			}
			o.stage = cReplyDone
			fs.eng.ScheduleStep(xfer, sim.Step{Fn: o.stepFn})
			return
		}
		o.chunkDone() // zero-cost local reply on a non-terminal chunk
		return
	}
	o.onNIC = true
	o.xfer = xfer
	if setup > 0 {
		o.stage = cReplyAtNIC
		fs.eng.ScheduleStep(setup, sim.Step{Fn: o.stepFn})
		return
	}
	o.replyAtNIC()
}

func (o *chunkOp) replyAtNIC() {
	fs := o.f.fs
	nic := fs.net.NIC(o.clientNode)
	if nic.InUse() >= nic.Cap() {
		fs.net.NoteStall()
	}
	o.stage = cReplyNICGranted
	if nic.AcquireFn(o.stepFn) {
		o.replyNICGranted()
	}
}

func (o *chunkOp) replyNICGranted() {
	fs := o.f.fs
	if o.terminal && o.idx == len(o.list)-1 {
		// The reply transfer is the chain's final timed event; EndTransfer
		// releases the client NIC (kindReplyNIC).
		o.kind = kindReplyNIC
		fs.eng.ScheduleStep(o.xfer, o.x.term)
		return
	}
	o.stage = cReplyDone
	fs.eng.ScheduleStep(o.xfer, sim.Step{Fn: o.stepFn})
}

// chunkDone advances to the next chunk of the chain, or completes the chain.
func (o *chunkOp) chunkDone() {
	o.idx++
	if o.idx < len(o.list) {
		o.startChunk()
		return
	}
	if o.terminal {
		// The last chunk of a terminal chain completes via finishTerminal,
		// never here.
		panic("pfs: terminal chunk fell through")
	}
	fs := o.f.fs
	x := o.x
	fs.putChunkOp(o)
	x.remaining--
	if x.remaining == 0 {
		fs.eng.ScheduleStep(0, x.term)
	}
}

// fail fail-stops the run on a device error, as serveNode does without a
// resilience policy: same structured IOError, same abort accounting.
func (o *chunkOp) fail() {
	c := &o.list[o.idx]
	fs := o.f.fs
	if fs.mAborted == nil {
		fs.mAborted = fs.eng.Metrics().Counter("pfs.aborted_ops")
	}
	fs.mAborted.Inc()
	ioerr := &IOError{Op: opName(o.write), Node: c.Node, Attempts: 1, Time: fs.eng.Now(), Err: o.err}
	fs.putChunkOp(o)
	fs.eng.AbortRun(ioerr)
}
