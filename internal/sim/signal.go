package sim

// Signal is a one-shot condition: continuations wait on it, and a single
// Fire releases all current and future waiters. Firing twice is a no-op.
// A waiter is a Step, like a resource claim: a process waits with its own
// wake (Proc.WaitSignal), an event chain with a callback (WaitFn), and
// both kinds are released in strict wait-arrival order.
type Signal struct {
	eng     *Engine
	fired   bool
	waiters []Step
}

// NewSignal returns an unfired signal bound to e.
func NewSignal(e *Engine) *Signal { return &Signal{eng: e} }

// Fired reports whether the signal has fired.
func (s *Signal) Fired() bool { return s.fired }

// Fire releases all waiters at the current virtual time, in the order they
// began waiting: each waiter's Step is scheduled as a zero-delay event on
// the engine's same-instant lane, so firing allocates nothing beyond queue
// growth.
func (s *Signal) Fire() {
	if s.fired {
		return
	}
	s.fired = true
	waiters := s.waiters
	s.waiters = nil // one-shot: drop the backing array for GC
	for _, k := range waiters {
		s.eng.ScheduleStep(0, k)
	}
}

// WaitFn registers fn to be scheduled (as a zero-delay event) when the
// signal fires and returns true. If the signal has already fired it does
// nothing and returns false: the caller continues inline, exactly where a
// waiting process would have returned without parking.
func (s *Signal) WaitFn(fn func()) bool {
	if s.fired {
		return false
	}
	s.waiters = append(s.waiters, Step{Fn: fn})
	return true
}
