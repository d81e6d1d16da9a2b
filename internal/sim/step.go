package sim

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
// Fn, a process wake for P. Negative d panics, matching After.
func (e *Engine) ScheduleStep(d float64, k Step) {
	if d < 0 {
		panic("sim: negative ScheduleStep delay")
	}
	if e.stopped {
		return
	}
	e.schedule(e.now+d, k.Fn, k.P)
}
