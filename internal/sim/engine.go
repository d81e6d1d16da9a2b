// Package sim provides a deterministic, process-based discrete-event
// simulation kernel.
//
// Model: a simulation is a set of processes (goroutines) advancing a shared
// virtual clock. Exactly one process (or the engine) runs at any instant;
// control is handed off explicitly, so runs are fully deterministic for a
// given program and seed. Events scheduled for the same instant fire in
// scheduling order.
//
// The kernel is intentionally small: an event queue, cooperative processes
// with Delay/Spawn/Join, FIFO resources with capacity (servers/queues),
// condition signals, and wait groups. Everything else in this repository —
// networks, disks, parallel file systems, applications — is built on it.
//
// Internally the event queue is split into a same-instant FIFO ring (all
// zero-delay work: wakeups, After(0, …), Yield) and a 4-ary time heap
// (everything that moves the clock), merged in exact (at, seq) order. The
// event loop itself is baton-passed: whichever goroutine holds control pops
// and fires the next event directly, so waking yourself after a Delay costs
// no context switch at all and waking another process costs one handoff
// instead of two. See DESIGN.md, "Kernel performance".
package sim

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"pario/internal/stats"
)

// Engine owns the virtual clock and the event queue. The zero value is not
// usable; construct with NewEngine.
type Engine struct {
	now      float64
	seq      uint64
	pq       eventHeap // events strictly in the future
	ring     eventRing // events at the current instant, FIFO
	running  bool
	stopped  bool
	executed uint64 // events fired so far

	// Baton-passing state. handoff is where the goroutine that drains the
	// queue (or traps a fatal panic) returns control; it is received on by
	// Run, except while killAll temporarily redirects returns through
	// drainTo to reap victims one by one. current is the process whose
	// goroutine holds the baton (nil when Run or a finished worker does).
	handoff chan struct{}
	drainTo chan struct{}
	current *Proc
	reaping bool // killAll in progress: dying workers return the baton directly
	fatal   any  // panic value carried from a worker goroutine to Run

	live    map[*Proc]struct{}
	procSeq uint64    // spawn-order ids, for deterministic teardown
	workers []*worker // parked resume machinery reusable by the next Spawn

	// Interrupt state. intrCheck, when set, is polled every intrStride
	// events by the dispatch loop; a non-nil return aborts the run (see
	// SetInterrupt). intrErr carries the abort cause from whichever
	// goroutine was dispatching back to Run.
	intrCheck func() error
	intrErr   error

	// abortErr is the fail-stop cause recorded by Proc.Abort: the first
	// abort of a run wins, the dispatch loop stops promptly, and Run
	// returns the cause wrapped in ErrAborted after tearing the simulation
	// down. Nil on every healthy run.
	abortErr error

	metrics *stats.Registry
	wallSec float64 // real time spent inside Run
}

// intrStride is how many events run between interrupt polls: large enough
// that the poll (one predictable branch plus, every stride, one atomic load
// inside context.Context.Err) is invisible next to event dispatch, small
// enough that cancellation lands within microseconds of simulated work.
const intrStride = 1024

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	e := &Engine{
		handoff: make(chan struct{}),
		live:    make(map[*Proc]struct{}),
		metrics: stats.NewRegistry(),
	}
	e.drainTo = e.handoff
	return e
}

// Metrics returns the engine's metrics registry, the shared substrate
// every component built on this engine feeds. Components fetch their
// handles at construction time; the registry stays valid for inspection
// after Stop.
func (e *Engine) Metrics() *stats.Registry { return e.metrics }

// WallSec returns the cumulative real time spent inside Run — the "wall
// vs. sim time" side of the kernel's work accounting. It is the one
// non-deterministic quantity the engine tracks, which is why it lives
// outside the registry.
func (e *Engine) WallSec() float64 { return e.wallSec }

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// SetInterrupt installs check, polled by the event loop every few hundred
// events (and before the first). When check returns a non-nil error the run
// aborts: Run kills all live processes, stops the engine, and returns the
// error wrapped in ErrInterrupted. check must be safe to call from whichever
// goroutine holds the event-loop baton — context.Context.Err is the intended
// value. A nil check clears the hook. Must not be called while Run is
// executing.
func (e *Engine) SetInterrupt(check func() error) {
	e.intrCheck = check
}

// ErrInterrupted is wrapped around the error returned by an interrupt check
// that aborted a Run, so callers can distinguish cancellation from
// deadlock. The check's own error (e.g. context.DeadlineExceeded) is in the
// chain too.
var ErrInterrupted = errors.New("sim: run interrupted")

// ErrAborted is wrapped around the cause passed to Proc.Abort, so callers
// can distinguish a model-level fail-stop (an injected disk outage, an
// exhausted retry budget) from deadlock or cancellation. The cause itself
// stays in the chain for errors.Is/As matching.
var ErrAborted = errors.New("sim: run aborted")

// ErrDeadlock is wrapped into Run's error when the event queue drains with
// processes still blocked, so callers can classify the outcome without
// string matching.
var ErrDeadlock = errors.New("sim: deadlock")

// Events returns the number of events executed so far — the kernel's work
// metric for performance reporting.
func (e *Engine) Events() uint64 { return e.executed }

// schedule inserts an occurrence at absolute time t: a wakeup of p when
// p != nil, otherwise the callback fn. Same-instant events take the FIFO
// ring; future events take the heap. The split preserves the global
// (at, seq) firing order because ring entries all carry at == now and
// monotonically increasing seq, and the clock cannot advance while the ring
// is non-empty.
func (e *Engine) schedule(t float64, fn func(), p *Proc) {
	e.seq++
	ev := event{at: t, seq: e.seq, fn: fn, proc: p}
	if t == e.now {
		e.ring.push(ev)
	} else {
		e.pq.push(ev)
	}
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it would corrupt the clock. Scheduling on a stopped engine panics
// too: after Stop the engine can be inspected but not reused.
func (e *Engine) At(t float64, fn func()) {
	if e.stopped {
		panic("sim: At on stopped engine")
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %g before now %g", t, e.now))
	}
	e.schedule(t, fn, nil)
}

// After schedules fn to run d seconds from now.
func (e *Engine) After(d float64, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %g", d))
	}
	if e.stopped {
		panic("sim: After on stopped engine")
	}
	e.schedule(e.now+d, fn, nil)
}

// Spawn creates a process executing body and schedules it to start at the
// current virtual time. The returned Proc is also passed to body. Spawning
// on a stopped engine panics: after Stop the engine cannot be reused.
//
// The goroutine and resume channel backing the process are pooled: a Spawn
// following a process exit reuses the parked machinery instead of paying
// for a new goroutine, channel, and activation closure.
func (e *Engine) Spawn(name string, body func(*Proc)) *Proc {
	if e.stopped {
		panic("sim: Spawn on stopped engine")
	}
	e.procSeq++
	p := &Proc{eng: e, id: e.procSeq, name: name, body: body}
	var w *worker
	if n := len(e.workers); n > 0 {
		w = e.workers[n-1]
		e.workers[n-1] = nil
		e.workers = e.workers[:n-1]
	} else {
		w = &worker{resume: make(chan struct{})}
		go e.workerLoop(w)
	}
	w.p = p
	p.w = w
	e.live[p] = struct{}{}
	e.schedule(e.now, nil, p) // activation
	return p
}

// scheduleWake queues a zero-delay wakeup for p. On a stopped engine it is
// a no-op: the processes are being killed and the event queue has been
// dropped, so a wakeup could never fire — and synchronization primitives
// legitimately reach here from the cleanup of killed processes.
func (e *Engine) scheduleWake(p *Proc) {
	if e.stopped {
		return
	}
	e.schedule(e.now, nil, p)
}

// scheduleFn queues a zero-delay callback — the continuation analog of
// scheduleWake, with the same stopped-engine no-op semantics (a granted
// continuation on a dying engine can never legitimately run).
func (e *Engine) scheduleFn(fn func()) {
	if e.stopped {
		return
	}
	e.schedule(e.now, fn, nil)
}

// Wake schedules a zero-delay wakeup of p: the terminal event of a
// continuation-style operation whose issuer parked itself with
// Proc.Suspend. Waking an already-runnable or exited process is harmless
// (the stale wake is skipped), and on a stopped engine Wake is a no-op.
func (e *Engine) Wake(p *Proc) { e.scheduleWake(p) }

// AbortRun fail-stops the run from an event callback — the continuation
// analog of Proc.Abort. The first recorded cause wins; the dispatch loop
// fires nothing further once the current callback returns, and Run returns
// the cause wrapped in ErrAborted after tearing the simulation down. Unlike
// Proc.Abort it returns normally: callbacks have no stack to unwind.
func (e *Engine) AbortRun(err error) {
	if err == nil {
		err = errors.New("sim: AbortRun with nil cause")
	}
	if e.abortErr == nil {
		e.abortErr = err
	}
}

// next removes and returns the earliest event across the ring and the heap,
// merging the two lanes in exact (at, seq) order. The heap can hold events
// at the current instant that were scheduled from an earlier one, and those
// always carry smaller seqs than anything in the ring, so comparing lane
// heads is enough.
func (e *Engine) next() (event, bool) {
	if e.ring.size > 0 {
		if e.pq.Len() > 0 && e.pq.ev[0].before(e.ring.peek()) {
			return e.pq.pop(), true
		}
		return e.ring.pop(), true
	}
	if e.pq.Len() > 0 {
		return e.pq.pop(), true
	}
	return event{}, false
}

// Outcomes of one dispatch stretch: who holds the baton next.
type dispatchOutcome int8

const (
	dispatchDrained dispatchOutcome = iota // queue empty; caller keeps the baton
	dispatchHandoff                        // baton sent to another process
	dispatchSelf                           // next event was the caller's own wake
	dispatchFatal                          // a callback panicked; e.fatal is set
)

// dispatch fires events until the queue drains or the baton must move to a
// process goroutine. self is the blocked process running the loop and w its
// worker (both nil when Run runs it; self nil but w set when a finished
// worker runs it): popping a wake owned by the dispatching goroutine —
// self's own wake, or the activation of a fresh process assigned to the
// pooled worker w — returns dispatchSelf without touching a channel, which
// is what makes an uncontended Delay allocation- and switch-free.
func (e *Engine) dispatch(self *Proc, w *worker) dispatchOutcome {
	for {
		if e.abortErr != nil {
			// A process fail-stopped the run: fire nothing further, return
			// the baton toward Run, which tears the simulation down.
			return dispatchDrained
		}
		if e.executed%intrStride == 0 && e.intrCheck != nil && e.intrErr == nil {
			if err := e.intrCheck(); err != nil {
				// Abort the stretch as if the queue drained; the baton
				// finds its way back to Run, which sees intrErr and tears
				// the simulation down.
				e.intrErr = err
				return dispatchDrained
			}
		}
		ev, ok := e.next()
		if !ok {
			return dispatchDrained
		}
		e.now = ev.at
		e.executed++
		if p := ev.proc; p != nil {
			if p.done {
				continue // stale wake for an exited process
			}
			e.current = p
			if p == self || p.w == w {
				return dispatchSelf
			}
			p.w.resume <- struct{}{}
			return dispatchHandoff
		}
		if pan := fire(ev.fn); pan != nil {
			e.fatal = pan
			return dispatchFatal
		}
	}
}

// fire runs one callback, trapping a panic so it can be re-raised from Run
// no matter which goroutine was dispatching when it happened.
func fire(fn func()) (pan any) {
	defer func() { pan = recover() }()
	fn()
	return nil
}

// Run executes events until the queue drains. It returns an error if, at
// that point, processes remain blocked (a deadlock: they wait on a signal
// or resource that can no longer be provided). Blocked processes are killed
// so their goroutines are reclaimed. Running a stopped engine is an error:
// after Stop the engine can be inspected but not reused.
//
// A panic in a process body or event callback propagates out of Run
// regardless of which goroutine was executing it.
func (e *Engine) Run() error {
	if e.stopped {
		return fmt.Errorf("sim: Run on stopped engine")
	}
	if e.running {
		return fmt.Errorf("sim: Run called re-entrantly")
	}
	e.running = true
	wallStart := time.Now()
	defer func() {
		e.running = false
		e.wallSec += time.Since(wallStart).Seconds()
		// Pooled workers must not outlive the Run that parked them, or an
		// engine dropped without Stop would leak goroutines.
		e.closePool()
		// Mirror the kernel's work accounting into the metrics registry
		// once per Run — Set keeps repeated Runs idempotent, and the hot
		// event loop stays untouched.
		e.metrics.Counter("sim.events").Set(int64(e.executed))
		e.metrics.Float("sim.time_sec", stats.AggSum).Set(e.now)
	}()
	switch e.dispatch(nil, nil) {
	case dispatchHandoff:
		<-e.handoff // baton returns when the queue drains or a panic traps
		if e.fatal != nil {
			f := e.fatal
			e.fatal = nil
			panic(f)
		}
	case dispatchFatal:
		f := e.fatal
		e.fatal = nil
		panic(f)
	case dispatchDrained:
	}
	if e.abortErr != nil {
		// A process fail-stopped the run (Proc.Abort). Tear the simulation
		// down exactly like Stop and surface the structured cause: a fault
		// that exhausted its retry budget is an outcome, not a deadlock.
		err := e.abortErr
		e.abortErr = nil
		e.Stop()
		return fmt.Errorf("%w: %w", ErrAborted, err)
	}
	if e.intrErr != nil {
		// An interrupt check aborted the run. Tear the simulation down
		// exactly like Stop: the remaining events can never legitimately
		// fire and the caller gets the cause, not a deadlock report.
		err := e.intrErr
		e.intrErr = nil
		e.Stop()
		return fmt.Errorf("%w: %w", ErrInterrupted, err)
	}
	if len(e.live) > 0 {
		procs := e.liveInSpawnOrder(e.current)
		names := make([]string, len(procs))
		for i, p := range procs {
			names[i] = p.name
		}
		n := len(procs)
		e.killAll()
		return fmt.Errorf("%w, %d process(es) still blocked: [%s]",
			ErrDeadlock, n, strings.Join(names, " "))
	}
	return nil
}

// liveInSpawnOrder snapshots the live processes sorted by spawn order,
// excluding the baton holder (which cannot be reaped by itself).
func (e *Engine) liveInSpawnOrder(exclude *Proc) []*Proc {
	procs := make([]*Proc, 0, len(e.live))
	for p := range e.live {
		if p != exclude {
			procs = append(procs, p)
		}
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i].id < procs[j].id })
	return procs
}

// killAll terminates every live process by waking it with the killed flag
// set; the process panics with errKilled, which the worker loop absorbs.
// Victims are snapshotted once and reaped in spawn order — linear work and
// a stable order, where re-scanning the live map per kill would be O(n²)
// and order-random. The outer loop only repeats if a victim's unwind (a
// user defer) spawned new processes.
func (e *Engine) killAll() {
	caller := e.current
	prev := e.drainTo
	e.reaping = true
	defer func() { e.reaping = false }()
	for {
		victims := e.liveInSpawnOrder(caller)
		if len(victims) == 0 {
			break
		}
		ret := make(chan struct{})
		e.drainTo = ret
		for _, p := range victims {
			if p.done {
				continue
			}
			p.killed = true
			e.current = p
			p.w.resume <- struct{}{}
			<-ret // victim unwound and handed the baton back
			if e.fatal != nil {
				f := e.fatal
				e.fatal = nil
				e.drainTo = prev
				e.current = caller
				panic(f)
			}
		}
	}
	e.drainTo = prev
	e.current = caller
	// If the baton holder killed the engine from inside a callback, it is
	// marked for unwinding too and reaps itself when control returns to it
	// (see Proc.block).
	if caller != nil {
		caller.killed = true
	}
}

// closePool shuts down parked worker goroutines.
func (e *Engine) closePool() {
	for _, w := range e.workers {
		close(w.resume)
	}
	e.workers = nil
}

// Stop kills all live processes and drops pending events. After Stop the
// engine can be inspected but not reused. Stop may be called from an event
// callback or from outside Run.
func (e *Engine) Stop() {
	if e.stopped {
		return
	}
	e.stopped = true
	e.pq = eventHeap{}
	e.ring = eventRing{}
	e.killAll()
	e.closePool()
}
