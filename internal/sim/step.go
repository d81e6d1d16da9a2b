package sim

import (
	"fmt"
	"math"
)

// Step is a continuation: what happens when an event-driven operation
// reaches its next boundary. Exactly one field is set. Fn is scheduled as an
// ordinary callback event — the operation keeps advancing with no process
// involved. P schedules a wakeup of a process parked in Proc.Suspend — the
// operation's terminal event, after which the issuer runs the epilogue
// inline, exactly as a blocking caller resuming from its final Delay would.
//
// The distinction is what keeps the asynchronous I/O path event-for-event
// identical to the blocking one: every blocking-path process wake maps to
// either a callback (intermediate stage) or a real wake (the last stage),
// never to an extra event.
type Step struct {
	Fn func()
	P  *Proc
}

// ScheduleStep schedules k to run d seconds from now: a callback event for
// Fn, a process wake for P. Before the first Run the clock reads 0, so d
// is then an absolute time. A negative, NaN or infinite d panics. On a stopped engine it does nothing: the event queue
// is gone, and a resource legitimately grants from the unwind of a killed
// process.
func (e *Engine) ScheduleStep(d float64, k Step) {
	if !(d >= 0 && d <= math.MaxFloat64) {
		panic(fmt.Sprintf("sim: bad ScheduleStep delay %g", d))
	}
	if e.stopped {
		return
	}
	e.schedule(e.Now()+d, k.Fn, k.P)
}

// Continue runs k at the current instant: Fn inline, P by a zero-delay wake.
// It is how an operation hands on an outcome it learned without waiting,
// such as a refused request: a callback chain goes on with no event of its
// own, while a parked process still needs its wake.
func (e *Engine) Continue(k Step) {
	if k.Fn != nil {
		k.Fn()
		return
	}
	e.ScheduleStep(0, k)
}
