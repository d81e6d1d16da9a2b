package pio

import (
	"pario/internal/pfs"
	"pario/internal/sim"
	"pario/internal/trace"
)

// ioOp is one data call in flight — ReadAt, WriteAt or a ReadAsync prefetch
// — run as a pooled state machine over its stages: the positioning seek,
// the call overhead, the transfer.
//
// Each stage is placed at exactly the (time, sequence) slot where a caller
// delaying through the stages in turn would wake, so the output is the same
// as a process paying them one Delay at a time; only the number of process
// resumes differs. The rule, the one pfs's chunk chains follow:
//   - a stage with zero cost runs inline and schedules nothing, as a
//     caller skips a zero Delay;
//   - a delay that is not the call's last event is a callback (sim.Step Fn)
//     that runs the next stage;
//   - the last event is the issuer's wake (sim.Step P): the transfer's
//     terminal, after which the woken issuer runs pfs.File.EndTransfer, or,
//     for a call of zero bytes, its last delay.
//
// A prefetch has no issuing process: every event is a callback and the
// transfer's terminal callback completes the prefetch.
type ioOp struct {
	h      *Handle
	p      *sim.Proc  // issuer woken by the last event; nil for a prefetch
	ar     *AsyncRead // the prefetch this op completes, or nil
	off, n int64
	write  bool
	stage  int8
	t0     float64 // start of the timed operation: the seek, then the data call
	x      *pfs.Xfer
	stepFn func()
}

// ioOp stages: what the next advance does.
const (
	opSeek     int8 = iota // entry of ReadAt/WriteAt: apply the positioning discipline
	opSeekDone             // seek paid: record it and move the position
	opCall                 // entry of a prefetch: pay the call overhead
	opCallDone             // call overhead paid: start the transfer
	opDone                 // the call's last event has fired
)

func (c *Client) getOp(h *Handle, off, n int64, write bool) *ioOp {
	var o *ioOp
	if k := len(c.ops); k > 0 {
		o = c.ops[k-1]
		c.ops = c.ops[:k-1]
	} else {
		o = &ioOp{}
		o.stepFn = o.step
	}
	o.h, o.off, o.n, o.write = h, off, n, write
	return o
}

func (c *Client) putOp(o *ioOp) {
	o.h, o.p, o.ar, o.x = nil, nil, nil, nil
	c.ops = append(c.ops, o)
}

// call is the one body of ReadAt and WriteAt.
func (h *Handle) call(p *sim.Proc, off, n int64, write bool) {
	c := h.c
	o := c.getOp(h, off, n, write)
	o.p = p
	o.stage = opSeek
	o.run(p)
	start := o.t0
	c.putOp(o)
	h.pos = off + n
	op := trace.Read
	if write {
		op = trace.Write
	}
	c.rec.RecordAt(op, start, p.Now()-start, off, n)
}

// run drives o on its issuer p to the end of the transfer: p sleeps through
// the stages that run as callbacks and is woken once, by the last event.
func (o *ioOp) run(p *sim.Proc) {
	for o.advance() {
		p.Suspend()
	}
	if o.x != nil {
		o.h.f.EndTransfer(o.x)
	}
}

// step is the callback for every stage but the last. Only a prefetch
// reaches its end here: for any other op the last event wakes the issuer,
// which finishes in run.
func (o *ioOp) step() {
	if !o.advance() {
		o.finishPrefetch()
	}
}

// advance runs stages until one schedules an event, and reports whether one
// did; false means the call's last event has fired.
func (o *ioOp) advance() bool {
	c := o.h.c
	now := c.fs.Engine().Now()
	for {
		switch o.stage {
		case opSeek:
			o.stage = opCall
			// PASSION-style interfaces seek before every positioned call;
			// Fortran/UNIX-style ones only on an out-of-sequence access.
			if c.par.ExplicitSeeks || o.off != o.h.pos {
				o.t0 = now
				o.stage = opSeekDone
				if c.par.SeekSec > 0 {
					o.after(c.par.SeekSec, o.callSec() == 0 && o.n == 0)
					return true
				}
			}
		case opSeekDone:
			c.rec.Record(trace.Seek, now-o.t0, 0)
			o.h.pos = o.off
			o.stage = opCall
		case opCall:
			if o.ar == nil {
				c.mIndep.Inc()
			}
			o.t0 = now
			o.stage = opCallDone
			if d := o.callSec(); d > 0 {
				o.after(d, o.n == 0)
				return true
			}
		case opCallDone:
			o.stage = opDone
			if o.n > 0 {
				term := sim.Step{P: o.p}
				if o.p == nil {
					term = sim.Step{Fn: o.stepFn}
				}
				o.x = o.h.f.BeginTransfer(c.node, o.off, o.n, o.write, term)
				return true
			}
		case opDone:
			return false
		}
	}
}

// callSec is the interface's per-call software cost for this op.
func (o *ioOp) callSec() float64 {
	if o.write {
		return o.h.c.par.WriteCallSec
	}
	return o.h.c.par.ReadCallSec
}

// after schedules the next stage d seconds from now: the issuer's wake when
// this is the call's last event, a callback otherwise.
func (o *ioOp) after(d float64, last bool) {
	k := sim.Step{Fn: o.stepFn}
	if last && o.p != nil {
		k = sim.Step{P: o.p}
	}
	o.h.c.fs.Engine().ScheduleStep(d, k)
}
