package disk

import (
	"fmt"

	"pario/internal/sim"
)

// op is the pooled continuation state of one AccessAsync request. The two
// callbacks are bound once at allocation (method values), so steady-state
// asynchronous access allocates nothing: ops cycle through the per-disk free
// list and the event queue stores plain func values.
type op struct {
	d         *Disk
	off, size int64
	write     bool
	errp      *error
	k, fail   sim.Step
	grantFn   func()
	doneFn    func()
}

func (d *Disk) getOp() *op {
	if n := len(d.ops); n > 0 {
		o := d.ops[n-1]
		d.ops = d.ops[:n-1]
		return o
	}
	o := &op{d: d}
	o.grantFn = o.grant
	o.doneFn = o.done
	return o
}

func (d *Disk) putOp(o *op) {
	o.errp = nil
	o.k, o.fail = sim.Step{}, sim.Step{}
	d.ops = append(d.ops, o)
}

// AccessAsync performs one request as engine events: queueing and service
// run on a pooled continuation, and k runs when service completes. Access
// is this call plus the issuer's Suspend.
//
// On failure (an injected outage) *errp is set, the service slot is already
// released, and fail runs instead of k; otherwise *errp is left untouched,
// so the caller must clear it beforehand. A failure is known when the
// request reaches the head of the queue, so it costs no event of its own:
// fail.Fn runs inline there — before AccessAsync returns when the drive was
// idle. A fail.P wake is scheduled at that instant.
//
// The success continuation contract differs by kind:
//   - k.Fn: the service slot is released first, then k.Fn runs inline within
//     the end-of-service event.
//   - k.P: the end-of-service event is the wake of p itself (the operation's
//     terminal event). The slot is NOT released — the woken process must call
//     FinishAccess, the release a k.Fn request makes before k.Fn runs.
func (d *Disk) AccessAsync(off, size int64, write bool, errp *error, k, fail sim.Step) {
	if off < 0 || size < 0 {
		panic(fmt.Sprintf("disk: bad request off=%d size=%d", off, size))
	}
	o := d.getOp()
	o.off, o.size, o.write, o.errp, o.k, o.fail = off, size, write, errp, k, fail
	if d.res.Claim(sim.Step{Fn: o.grantFn}) {
		o.grant()
	}
}

// grant runs when the request reaches the head of the queue: inline when the
// disk was idle, as the grant event of its claim otherwise.
func (o *op) grant() {
	d := o.d
	if d.failed {
		d.res.Release()
		if d.mFailed == nil {
			d.mFailed = d.eng.Metrics().Counter("disk.failed_requests")
		}
		d.mFailed.Inc()
		*o.errp = fmt.Errorf("%s: %w", d.name, ErrFailed)
		fail := o.fail
		d.putOp(o)
		d.eng.Continue(fail) // the request errs where it reached the head
		return
	}
	svc := d.par.RequestOverhead + float64(o.size)*d.par.ByteTime
	if s := d.seekTime(o.off); s > 0 {
		svc += s
		d.st.Seeks++
		d.mSeeks.Inc()
	}
	if d.mult != 1 {
		svc *= d.mult
	}
	d.head = o.off + o.size
	if o.write {
		d.st.Writes++
		d.st.BytesWrite += o.size
		d.mBytesWrite.Add(o.size)
	} else {
		d.st.Reads++
		d.st.BytesRead += o.size
		d.mBytesRead.Add(o.size)
	}
	d.st.BusySec += svc
	d.mSvcTime.Observe(svc * 1e6)
	if o.k.P != nil {
		// Terminal: the end-of-service event wakes the issuing process, which
		// releases via FinishAccess after it resumes.
		k := o.k
		d.putOp(o)
		d.eng.ScheduleStep(svc, k)
		return
	}
	d.eng.ScheduleStep(svc, sim.Step{Fn: o.doneFn})
}

// done runs at end of service for an Fn continuation: release the slot, then
// continue the caller inline — the shape of a process resuming from its
// Delay and calling Release before returning.
func (o *op) done() {
	d := o.d
	d.res.Release()
	k := o.k
	d.putOp(o)
	k.Fn()
}

// FinishAccess releases the service slot of a terminal (k.P) AccessAsync.
// Call it from the woken process, once, after a successful request.
func (d *Disk) FinishAccess() { d.res.Release() }
