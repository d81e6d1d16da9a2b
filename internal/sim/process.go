package sim

import "errors"

// errKilled is the panic value used to unwind a killed process. It never
// escapes the kernel.
var errKilled = errors.New("sim: process killed")

// worker is the coroutine behind a process. Workers are pooled on the
// engine so process churn (Spawn → run → exit → Spawn …) reuses a parked
// coroutine instead of starting a fresh one per process. The three funcs
// come from iter.Pull when the coroutine starts (see Engine.resume).
type worker struct {
	p     *Proc                   // process currently assigned to this worker
	next  func() (struct{}, bool) // resume: run until the coroutine yields or ends
	stop  func()                  // end the coroutine while it is parked
	yield func(struct{}) bool     // park, returning control to the resumer
}

// Proc is a simulation process: a coroutine that runs in lockstep with the
// engine. All methods must be called from the process's own body, except
// Name and Done.
type Proc struct {
	eng      *Engine
	w        *worker
	id       uint64 // spawn order, for deterministic teardown
	name     string
	body     func(*Proc)
	done     bool
	killed   bool
	panicked any
	exit     *Signal // fired when the process finishes; lazily created
}

// Name returns the name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Done reports whether the process has finished.
func (p *Proc) Done() bool { return p.done }

// Engine returns the owning engine.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() float64 { return p.eng.now }

// workerLoop runs on the worker's coroutine: execute the assigned process,
// retire it, then park in the pool for reuse by a later Spawn. A retiring
// worker never dispatches: it yields with e.current nil and the driver
// fires the next event, which costs the same one switch out and one switch
// in as dispatching here first and naming the next process. So a pooled
// worker never runs a callback, and a Stop fired by one can never end the
// coroutine it is running on.
func (e *Engine) workerLoop(w *worker) {
	for {
		p := w.p
		runBody(p)

		// Retirement runs while this coroutine is the only one running, so
		// mutating engine state here is safe. Order matters: the process
		// must be fully done before its exit signal fires.
		delete(e.live, p)
		p.done = true
		p.body = nil
		if p.exit != nil {
			p.exit.Fire()
		}
		e.current = nil
		if p.panicked != nil {
			// End the coroutine; Run re-raises the panic.
			e.trap(p.panicked)
			return
		}
		if e.stopped {
			return // the engine is being torn down; nothing will reuse w
		}
		w.p = nil
		e.workers = append(e.workers, w)
		if !w.yield(struct{}{}) {
			return // pool shut down
		}
		// Resumed by a Spawn that took w from the pool and set w.p.
	}
}

// runBody executes the process body, absorbing the kill unwind and trapping
// any other panic for Run to re-raise.
func runBody(p *Proc) {
	defer func() {
		if r := recover(); r != nil && r != errKilled {
			p.panicked = r
		}
	}()
	if !p.killed {
		p.body(p)
	}
}

// block yields control until another event wakes this process. The
// blocked process runs the event loop itself: if the very next event is its
// own wake it simply keeps going — no switch — and otherwise it yields to
// the driver, which resumes whichever process e.current names. If the
// process was killed while blocked it unwinds.
func (p *Proc) block() {
	if p.killed {
		panic(errKilled) // killed mid-unwind; do not dispatch again
	}
	e := p.eng
	switch e.dispatch(p) {
	case dispatchSelf:
		// Our own wake was the next event: continue without parking.
	case dispatchHandoff:
		p.w.yield(struct{}{})
	case dispatchDrained:
		if p.killed {
			// A callback we just dispatched (e.g. Stop) killed this
			// process: unwind now.
			panic(errKilled)
		}
		e.current = nil
		p.w.yield(struct{}{})
	}
	if p.killed {
		panic(errKilled)
	}
}

// Delay advances this process d seconds of virtual time. Other processes
// and events run in the meantime. A zero delay still round-trips through
// the event queue, so same-instant events scheduled earlier run first.
// Steady-state Delay is allocation-free: the wakeup is a proc-wake record
// in the event queue, not a closure.
func (p *Proc) Delay(d float64) {
	if d < 0 {
		panic("sim: negative Delay")
	}
	p.eng.schedule(p.eng.now+d, nil, p)
	p.block()
}

// Yield lets all other events scheduled for the current instant run before
// this process continues.
func (p *Proc) Yield() { p.Delay(0) }

// ExitSignal returns a signal that fires when the process finishes. It may
// be requested before or after the process ends. The already-finished case
// goes through Fire rather than setting the fired flag directly, so any
// waiter that reached the signal through another path is notified instead
// of silently stranded.
func (p *Proc) ExitSignal() *Signal {
	if p.exit == nil {
		p.exit = NewSignal(p.eng)
		if p.done {
			p.exit.Fire()
		}
	}
	return p.exit
}

// Join blocks until q has finished. Joining a finished process returns
// immediately.
func (p *Proc) Join(q *Proc) {
	p.WaitSignal(q.ExitSignal())
}

// Abort fail-stops the run: err is recorded as the run's outcome (the
// first Abort of a run wins), this process unwinds immediately, the event
// loop fires nothing further, and Run returns err wrapped in ErrAborted
// after killing the remaining processes — the structured-error alternative
// to panicking out of a model layer. Abort never returns.
func (p *Proc) Abort(err error) {
	if err == nil {
		err = errors.New("sim: Abort with nil cause")
	}
	if p.eng.abortErr == nil {
		p.eng.abortErr = err
	}
	panic(errKilled)
}

// WaitSignal blocks until s fires. If s has already fired it returns
// immediately.
func (p *Proc) WaitSignal(s *Signal) {
	if s.fired {
		return
	}
	s.waiters = append(s.waiters, waiter{proc: p})
	p.block()
}

// Suspend parks the process until another event wakes it via Engine.Wake
// (or a resource/signal grant). It is the blocking half of the kernel's
// continuation-passing protocol: event-driven operations issued by this
// process run as ordinary events while the issuer sleeps here, and the
// operation's terminal event is a wake of this process. The caller must
// guarantee a wake is already scheduled or will be scheduled by pending
// events — Suspend with no wake in flight deadlocks the run.
func (p *Proc) Suspend() { p.block() }
