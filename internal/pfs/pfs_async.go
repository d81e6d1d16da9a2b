// Asynchronous transfer path: the event-driven twin of the blocking
// serveNode/doChunk pipeline.
//
// A Transfer on this path parks the issuing process once (sim.Proc.Suspend)
// and drives every chunk — request message, NIC contention, device access,
// data reply — as engine events on a pooled continuation (chunkOp), finishing
// with a single wake of the issuer. Each event is placed at exactly the
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
//   - The final timed event of a single-node transfer is the wake of the
//     issuer itself, replacing the blocking path's last delay-wake one for
//     one; the issuer then runs the epilogue (release/accounting calls the
//     blocking path makes inline after that delay) before returning.
//
// The path is only taken when it cannot diverge: no resilience policy (the
// timeout/retry machinery is process-based) and parameters under which the
// terminal event of every chunk is statically known (see FS.asyncOK).
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
// calls the woken issuer must make, mirroring what the blocking path does
// inline after its final delay.
const (
	kindNone      int8 = iota // nothing pending (local reply memcpy)
	kindCacheCopy             // cached write: start the write-behind drain
	kindDiskWrite             // uncached write: release the disk, close inflight
	kindDiskRead              // local zero-cost reply: release disk, close inflight, account reply
	kindReplyNIC              // remote read: release the client NIC
)

// xferCtr joins the per-node chains of a multi-node transfer — the
// event-driven twin of the blocking path's WaitGroup.
type xferCtr struct {
	remaining int
	client    *sim.Proc
}

// chunkOp drives an ordered chunk list against one I/O node. stepFn is bound
// once at allocation; ops and counters cycle through per-FS free lists, so a
// steady-state transfer allocates only what the blocking path's shared
// preamble does.
type chunkOp struct {
	f          *File
	client     *sim.Proc
	clientNode int
	list       []Chunk
	idx        int
	write      bool
	terminal   bool // single-node transfer: last chunk ends by waking client
	ctr        *xferCtr
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
	o.client = nil
	o.list = nil
	o.ctr = nil
	o.err = nil
	fs.chunkOps = append(fs.chunkOps, o)
}

func (fs *FS) getCtr() *xferCtr {
	if n := len(fs.ctrs); n > 0 {
		c := fs.ctrs[n-1]
		fs.ctrs = fs.ctrs[:n-1]
		return c
	}
	return &xferCtr{}
}

func (fs *FS) putCtr(c *xferCtr) {
	c.client = nil
	fs.ctrs = append(fs.ctrs, c)
}

// transferAsync is Transfer's event-driven body. The shared preamble
// (metrics, range mapping, grouping) has already run; lists carries the
// per-node chunk lists, parallel to order (I/O nodes in first-touch order).
func (f *File) transferAsync(p *sim.Proc, clientNode int, lists [][]Chunk, order []int, write bool) {
	fs := f.fs
	if len(order) == 1 {
		o := fs.getChunkOp()
		o.f, o.client, o.clientNode = f, p, clientNode
		o.list, o.idx, o.write = lists[0], 0, write
		o.terminal, o.ctr = true, nil
		o.kind = kindNone
		o.startChunk()
		p.Suspend() // the chain's terminal event is our wake
		f.finishTerminal(p, o)
		return
	}
	ctr := fs.getCtr()
	ctr.remaining, ctr.client = len(order), p
	for i := range order {
		o := fs.getChunkOp()
		o.f, o.client, o.clientNode = f, p, clientNode
		o.list, o.idx, o.write = lists[i], 0, write
		o.terminal, o.ctr = false, ctr
		o.stage = cStart
		// One kick-off event per node chain, where the blocking path
		// schedules one process activation per node.
		fs.eng.ScheduleStep(0, sim.Step{Fn: o.stepFn})
	}
	p.Suspend() // woken by the last chain to finish
	fs.putCtr(ctr)
}

// finishTerminal is the issuer-side epilogue of a single-node transfer: the
// release and accounting calls the blocking path makes inline after its final
// delay, plus the fail-stop that serveNode performs on a device error.
func (f *File) finishTerminal(p *sim.Proc, o *chunkOp) {
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
		ioerr := &IOError{Op: opName(o.write), Node: c.Node, Attempts: 1, Time: p.Now(), Err: err}
		fs.putChunkOp(o)
		p.Abort(ioerr)
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
// the issuing process down as the continuation: the device layer's final
// timed event becomes the issuer's wake, and finishTerminal runs the matching
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
			nd.AccessAsync(c.Disk, c.DiskOff, c.Len, true, &o.err, sim.Step{P: o.client})
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
		nd.AccessAsync(c.Disk, c.DiskOff, c.Len, false, &o.err, sim.Step{P: o.client})
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
				fs.eng.ScheduleStep(xfer, sim.Step{P: o.client})
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
		// The reply transfer is the chain's final timed event; the woken
		// issuer releases the client NIC (kindReplyNIC).
		o.kind = kindReplyNIC
		fs.eng.ScheduleStep(o.xfer, sim.Step{P: o.client})
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
	ctr := o.ctr
	fs.putChunkOp(o)
	ctr.remaining--
	if ctr.remaining == 0 {
		fs.eng.Wake(ctr.client)
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
