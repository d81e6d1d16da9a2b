// The transfer path: every chunk of a transfer as a chain of engine events.
//
// BeginTransfer drives every chunk — request message, device access, data
// reply — as engine events on a pooled continuation (chunkOp), finishing
// with one terminal event: a wake of the issuing process, or a callback when
// the issuer is itself an event chain (pio's prefetch). It never blocks, so
// it can run inside a callback. EndTransfer is the epilogue the terminal
// runs. Transfer is the two around the issuer's Suspend.
//
// Both messages of a chunk are network.SendAsync sends, the one model of a
// message that mp's traffic pays too: the chunkOp embeds the network.Msg,
// and the message's intermediate events run the chain's step at cRequest or
// cReply.
//
// The continuation rule: every stage but the last is a callback in the
// (time, sequence) slot where a process paying the stages in turn would
// wake; the last is the issuer's wake.
//   - The chunks for one I/O node run in file order on one chunkOp.
//   - A multi-node transfer runs one chain per node, each started by a
//     zero-delay kick-off; the last chain to finish schedules the terminal
//     as a zero-delay event.
//   - The final timed event of a single-node transfer is the terminal
//     itself; EndTransfer then runs the release and accounting calls the
//     device layers leave to the woken issuer.
//
// The client resilience policy is states of the same chain. A failed
// attempt learns its error inline, where the device refused or failed it,
// and goes straight on to the retry: after a backoff event, or inline when
// the backoff is zero. Under a request timeout each attempt runs on its own
// chunkOp racing a timer, both started by zero-delay kick-offs (the attempt
// first, so a tie resolves to success); whichever finishes first settles the
// race with one zero-delay continuation of the waiting chain, and the loser
// stands down. An abandoned attempt keeps running: it still holds the queue
// positions it reached, as a real straggler would, and releases them as it
// finishes.
package pfs

import (
	"fmt"

	"pario/internal/network"
	"pario/internal/sim"
)

// chunkOp stages: what the next stepFn invocation does.
const (
	cStart      int8 = iota // kick-off of a multi-node chain, or a backoff's end: attempt the chunk
	cAttempt                // kick-off of an attempt under a timeout: issue the chunk
	cRequest                // request message in flight; once delivered, issue the device access
	cAccessDone             // device access finished or failed (callback path)
	cReply                  // reply message in flight; once delivered, the chunk is complete
	cSettled                // an attempt under a timeout settled: go on, retry or abort
)

// Terminal-epilogue kinds of a single-node transfer: which release and
// accounting calls EndTransfer makes.
const (
	kindNone      int8 = iota // nothing pending
	kindNode                  // the device access was the last event: ionode EndAccess
	kindLocalRead             // as kindNode, plus the zero-cost local reply
)

// chunkOp drives an ordered chunk list against one I/O node — or, under a
// request timeout, one attempt of one chunk. stepFn (and timerFn, on an
// op's first attempt under a timeout) is bound once and ops cycle through a
// per-FS free list, so a steady-state transfer allocates only what the
// shared preamble does.
type chunkOp struct {
	f          *File
	x          *Xfer // nil for an attempt
	clientNode int
	list       []Chunk
	idx        int
	write      bool
	terminal   bool        // single-node transfer: the last chunk ends with x.term
	msg        network.Msg // the chunk's request or reply in flight
	err        error
	kind       int8
	stage      int8
	stepFn     func()

	// Resilience. tries counts the attempts made on list[idx]; timedOut
	// marks err as the request timeout.
	tries    int
	timedOut bool

	// An attempt under a timeout: owner is the chain it settles, nil once
	// either leg has; legs counts the legs still running (the attempt and
	// its timer); armed is set once the timer's delay is running. one holds
	// the attempt's own copy of its chunk, which outlives the transfer when
	// the attempt straggles.
	owner   *chunkOp
	legs    int8
	armed   bool
	timeout float64
	one     [1]Chunk
	timerFn func()
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
	o.owner = nil
	o.legs, o.armed, o.timedOut = 0, false, false
	fs.chunkOps = append(fs.chunkOps, o)
}

// newChain returns a chain over list at its first chunk.
func (fs *FS) newChain(f *File, x *Xfer, clientNode int, list []Chunk, write bool) *chunkOp {
	o := fs.getChunkOp()
	o.f, o.x, o.clientNode = f, x, clientNode
	o.list, o.idx, o.write = list, 0, write
	o.terminal = false
	o.kind = kindNone
	o.tries = 1
	return o
}

// BeginTransfer starts moving [off, off+size) between the memory of the
// compute node with topology index clientNode and the file, and returns at
// once: it runs the transfer's preamble and starts the chunk chains, and
// never blocks, so it may be called from an event callback. The transfer's
// last event is term: a wake of a process parked in Suspend, or a callback.
// Either must then call EndTransfer exactly once. A chunk that still fails
// once the resilience policy is exhausted fail-stops the run with an
// IOError instead, and term never runs. size must be positive.
func (f *File) BeginTransfer(clientNode int, off, size int64, write bool, term sim.Step) *Xfer {
	if size <= 0 {
		panic("pfs: BeginTransfer needs a positive size")
	}
	fs := f.fs
	x := f.prepare(off, size, write)
	x.term = term
	if len(x.order) == 1 {
		o := fs.newChain(f, x, clientNode, x.lists[0], write)
		o.terminal = true
		x.op = o
		o.attempt()
		return x
	}
	x.remaining = len(x.order)
	for i := range x.order {
		o := fs.newChain(f, x, clientNode, x.lists[i], write)
		o.stage = cStart
		fs.eng.ScheduleStep(0, sim.Step{Fn: o.stepFn})
	}
	return x
}

// EndTransfer is the epilogue of a transfer started by BeginTransfer, run by
// its terminal: the release and accounting calls left to the issuer, then
// the pfs.xfer_time observation.
func (f *File) EndTransfer(x *Xfer) {
	fs := f.fs
	fs.mXferTime.Observe((fs.eng.Now() - x.start) * 1e6)
	if o := x.op; o != nil {
		c := &o.list[len(o.list)-1]
		if o.kind != kindNone {
			fs.nodes[c.Node].EndAccess(c.Disk, c.DiskOff, c.Len, o.write, nil)
		}
		if o.kind == kindLocalRead {
			// The reply is a zero-cost local copy: delivered inline.
			fs.net.SendAsync(&o.msg, fs.nodeGlobal[c.Node], o.clientNode, c.Len, nil, sim.Step{})
		}
		o.msg.End() // a remote reply woke the issuer holding the client NIC
		fs.putChunkOp(o)
	}
	fs.putXfer(x)
}

// step advances the continuation by one stage. It is the single callback the
// event queue holds for this chain.
func (o *chunkOp) step() {
	switch o.stage {
	case cStart:
		o.attempt()
	case cAttempt:
		o.startChunk()
	case cRequest:
		if !o.msg.Advance() {
			o.access()
		}
	case cAccessDone:
		if o.err != nil {
			o.accessFailed()
			return
		}
		if o.write {
			o.chunkDone()
			return
		}
		o.reply()
	case cReply:
		if !o.msg.Advance() {
			o.chunkDone()
		}
	case cSettled:
		if o.timedOut {
			o.timedOut = false
			o.f.fs.mTimeouts.Inc()
		}
		if o.err != nil {
			o.retry()
			return
		}
		o.chunkDone()
	}
}

// attempt makes one attempt at chunk list[idx]. Without a request timeout
// the chain issues it itself. With one, the attempt runs on its own chunkOp
// racing a timer, and the chain waits for the race to settle.
func (o *chunkOp) attempt() {
	fs := o.f.fs
	r := fs.resil
	if r == nil || r.TimeoutSec <= 0 {
		o.startChunk()
		return
	}
	a := fs.getChunkOp()
	a.f, a.x, a.clientNode, a.write = o.f, nil, o.clientNode, o.write
	a.one[0] = o.list[o.idx]
	a.list, a.idx = a.one[:], 0
	a.terminal = false
	a.owner, a.legs, a.timeout = o, 2, r.TimeoutSec
	a.stage = cAttempt
	if a.timerFn == nil {
		a.timerFn = a.timer // bound on first use: most runs never race a timer
	}
	fs.eng.ScheduleStep(0, sim.Step{Fn: a.stepFn})
	fs.eng.ScheduleStep(0, sim.Step{Fn: a.timerFn})
}

// timer is the timeout leg of an attempt: its kick-off starts the timeout
// delay, whose end times the attempt out unless it has settled.
func (a *chunkOp) timer() {
	if !a.armed {
		a.armed = true
		a.f.fs.eng.ScheduleStep(a.timeout, sim.Step{Fn: a.timerFn})
		return
	}
	if o := a.owner; o != nil {
		a.owner = nil
		o.timedOut = true
		o.err = fmt.Errorf("%w after %gs (%s io%d)",
			ErrRequestTimeout, a.timeout, opName(a.write), a.one[0].Node)
		o.settle()
	}
	a.endLeg()
}

// attemptDone ends the attempt leg with its outcome, settling the race if
// the timer has not.
func (a *chunkOp) attemptDone(err error) {
	if o := a.owner; o != nil {
		a.owner = nil
		o.err = err
		o.settle()
	}
	a.endLeg()
}

func (a *chunkOp) endLeg() {
	a.legs--
	if a.legs == 0 {
		a.f.fs.putChunkOp(a)
	}
}

// settle continues the chain once a race has an outcome, with one
// zero-delay event: the terminal itself when the last chunk of a
// single-node transfer succeeded, otherwise the chain's cSettled stage.
func (o *chunkOp) settle() {
	eng := o.f.fs.eng
	if o.err == nil && o.terminal && o.idx == len(o.list)-1 {
		o.kind = kindNone // the attempt released everything it held
		eng.ScheduleStep(0, o.x.term)
		return
	}
	o.stage = cSettled
	eng.ScheduleStep(0, sim.Step{Fn: o.stepFn})
}

// accessFailed handles a device error reported at the access: an attempt
// settles its race with it; a chain closes the node accounting of a
// terminal access and goes on to the retry.
func (o *chunkOp) accessFailed() {
	if o.legs > 0 {
		o.attemptDone(o.err)
		return
	}
	if o.kind != kindNone {
		c := &o.list[o.idx]
		o.f.fs.nodes[c.Node].EndAccess(c.Disk, c.DiskOff, c.Len, o.write, o.err)
		o.kind = kindNone
	}
	o.retry()
}

// retry applies the resilience policy to the failed attempt at list[idx]:
// another attempt after an exponential backoff (inline when the backoff is
// zero), or, once the policy is exhausted — at once without one — the
// fail-stop.
func (o *chunkOp) retry() {
	fs := o.f.fs
	if r := fs.resil; r != nil && o.tries <= r.Retries {
		fs.mRetries.Inc()
		back := r.BackoffSec * float64(int64(1)<<uint(o.tries-1))
		o.tries++
		if back > 0 {
			o.stage = cStart
			fs.eng.ScheduleStep(back, sim.Step{Fn: o.stepFn})
			return
		}
		o.attempt()
		return
	}
	o.abort()
}

// abort fail-stops the run with the structured IOError.
func (o *chunkOp) abort() {
	c := &o.list[o.idx]
	fs := o.f.fs
	if fs.mAborted == nil {
		// Fail-stop without a policy: register the counter now, on the
		// faulted path only, so healthy runs never list it.
		fs.mAborted = fs.eng.Metrics().Counter("pfs.aborted_ops")
	}
	fs.mAborted.Inc()
	fs.eng.AbortRun(&IOError{Op: opName(o.write), Node: c.Node, Attempts: o.tries, Time: fs.eng.Now(), Err: o.err})
}

// startChunk issues chunk list[idx]: send the request message, data riding
// along for writes. Its delivery is a step at cRequest.
func (o *chunkOp) startChunk() {
	c := &o.list[o.idx]
	fs := o.f.fs
	msg := int64(RequestMsgBytes)
	if o.write {
		msg += c.Len
	}
	o.stage = cRequest
	if fs.net.SendAsync(&o.msg, o.clientNode, fs.nodeGlobal[c.Node], msg, o.stepFn, sim.Step{Fn: o.stepFn}) {
		o.access()
	}
}

// access issues the device access. The last chunk of a terminal chain woken
// as a process passes the transfer's terminal down as the continuation: the
// device layer's final timed event becomes the terminal, and EndTransfer
// runs the matching epilogue. A callback terminal instead continues the
// chain like any chunk, once the device layers have released what they
// hold, and chunkDone runs it inline in the same event. A failure continues
// at cAccessDone either way, inline.
func (o *chunkOp) access() {
	c := &o.list[o.idx]
	fs := o.f.fs
	nd := fs.nodes[c.Node]
	o.err = nil
	o.kind = kindNone
	o.stage = cAccessDone
	k := sim.Step{Fn: o.stepFn}
	if o.terminal && o.idx == len(o.list)-1 && o.x.term.P != nil {
		switch {
		case o.write:
			o.kind = kindNode
		case o.clientNode == fs.nodeGlobal[c.Node] && fs.net.Params().MemCopyByteTime == 0:
			// The reply would be a zero-cost local copy: the disk's end of
			// service is the chain's final timed event.
			o.kind = kindLocalRead
		}
		if o.kind != kindNone {
			nd.AccessAsync(c.Disk, c.DiskOff, c.Len, o.write, &o.err, o.x.term, k)
			return
		}
	}
	nd.AccessAsync(c.Disk, c.DiskOff, c.Len, o.write, &o.err, k, k)
}

// reply sends the read data back to the client. Its delivery is a step at
// cReply, or, on the last chunk of a terminal chain, the transfer's terminal
// itself: a woken issuer then holds the client NIC until EndTransfer ends the
// message; a callback terminal runs with it released.
func (o *chunkOp) reply() {
	c := &o.list[o.idx]
	fs := o.f.fs
	deliver := sim.Step{Fn: o.stepFn}
	if o.terminal && o.idx == len(o.list)-1 {
		deliver = o.x.term
	}
	o.stage = cReply
	if fs.net.SendAsync(&o.msg, fs.nodeGlobal[c.Node], o.clientNode, c.Len, o.stepFn, deliver) {
		o.chunkDone() // zero-cost local reply on a non-terminal chunk
	}
}

// chunkDone completes chunk list[idx]: an attempt settles its race; a chain
// goes on to its next chunk, or completes. A terminal chain gets here at its
// end only with a callback terminal, which runs inline; a process terminal
// is the final timed event of the last chunk itself (see access and reply).
func (o *chunkOp) chunkDone() {
	if o.legs > 0 {
		o.attemptDone(nil)
		return
	}
	o.idx++
	if o.idx < len(o.list) {
		o.tries = 1
		o.attempt()
		return
	}
	fs := o.f.fs
	if o.terminal {
		fs.eng.Continue(o.x.term)
		return
	}
	x := o.x
	fs.putChunkOp(o)
	x.remaining--
	if x.remaining == 0 {
		fs.eng.ScheduleStep(0, x.term)
	}
}
