// Package sim provides a deterministic, process-based discrete-event
// simulation kernel.
//
// Model: a simulation is a set of processes (coroutines) advancing a shared
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
// (everything that moves the clock), merged in exact (at, seq) order. Each
// process body runs on an iter.Pull coroutine, and the goroutine that calls
// Run is the driver that resumes them. A blocked process runs the event loop
// inline, so waking itself after a Delay, or firing callbacks, costs no
// switch at all; when the next event wakes a different process it yields to
// the driver, which resumes that process. A coroutine switch bypasses the Go
// scheduler, so a handoff through the driver costs far less than one channel
// operation between goroutines. See DESIGN.md, "Kernel performance".
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

	// Control state. current is the process whose coroutine is running, or
	// is to be resumed next when a blocked process yields to the driver; it
	// is nil while the driver (Run's goroutine) dispatches. fatal is the
	// first panic trapped in a process body or callback, carried to Run.
	current *Proc
	fatal   any

	live    map[*Proc]struct{}
	procSeq uint64    // spawn-order ids, for deterministic teardown
	workers []*worker // parked coroutines reusable by the next Spawn

	// Interrupt state. intrCheck, when set, is polled every intrStride
	// events by the dispatch loop; a non-nil return aborts the run (see
	// SetInterrupt). intrErr carries the abort cause from whichever
	// coroutine was dispatching back to Run.
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
	return &Engine{
		live:    make(map[*Proc]struct{}),
		metrics: stats.NewRegistry(),
	}
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
// process coroutine is dispatching — context.Context.Err is the intended
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
// The coroutine backing the process is pooled: a Spawn following a process
// exit reuses a parked coroutine instead of paying for a new one.
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
		w = &worker{} // its coroutine starts on first resume
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

// Outcomes of one dispatch stretch: who runs next.
type dispatchOutcome int8

const (
	dispatchDrained dispatchOutcome = iota // queue empty, or the run is ending
	dispatchHandoff                        // next event wakes e.current, another process
	dispatchSelf                           // next event was the caller's own wake
)

// dispatch fires events until the queue drains or a process must run. self
// is the blocked process running the loop (nil when the driver runs it):
// popping self's own wake returns dispatchSelf with no switch at all, which
// is what makes an uncontended Delay allocation- and switch-free. A wake of
// any other process sets e.current to it and returns dispatchHandoff.
func (e *Engine) dispatch(self *Proc) dispatchOutcome {
	for {
		if e.abortErr != nil {
			// A process fail-stopped the run: fire nothing further, let
			// control return to Run, which tears the simulation down.
			return dispatchDrained
		}
		if e.executed%intrStride == 0 && e.intrCheck != nil && e.intrErr == nil {
			if err := e.intrCheck(); err != nil {
				// Abort the stretch as if the queue drained; Run sees
				// intrErr and tears the simulation down.
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
			if p == self {
				return dispatchSelf
			}
			return dispatchHandoff
		}
		if pan := fire(ev.fn); pan != nil {
			e.trap(pan)
			return dispatchDrained // Run re-raises the panic
		}
	}
}

// fire runs one callback, trapping a panic so it can be re-raised from Run
// no matter which coroutine was dispatching when it happened.
func fire(fn func()) (pan any) {
	defer func() { pan = recover() }()
	fn()
	return nil
}

// trap records a panic for Run to re-raise. The first one wins: a panic in
// the unwind of a process being torn down because of it is a consequence,
// not the cause.
func (e *Engine) trap(pan any) {
	if e.fatal == nil {
		e.fatal = pan
	}
}

// drive is the driver loop, run on Run's goroutine. It dispatches events
// and resumes the process each handoff names; a resumed process runs the
// event loop itself while it blocks, and yields back naming the next
// process to resume, or nil when the driver should dispatch again (it
// exited, or its stretch drained or trapped a panic).
func (e *Engine) drive() {
	for e.dispatch(nil) == dispatchHandoff {
		for e.current != nil {
			e.resume(e.current.w)
		}
		if e.fatal != nil || e.intrErr != nil {
			return
		}
	}
}

// Run executes events until the queue drains. It returns an error if, at
// that point, processes remain blocked (a deadlock: they wait on a signal
// or resource that can no longer be provided). Blocked processes are killed
// so their coroutines are reclaimed. Running a stopped engine is an error:
// after Stop the engine can be inspected but not reused.
//
// A panic in a process body or event callback propagates out of Run
// regardless of which coroutine was executing it, after the live processes
// have been torn down in spawn order.
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
		// engine dropped without Stop would leak coroutines.
		e.closePool()
		// Mirror the kernel's work accounting into the metrics registry
		// once per Run — Set keeps repeated Runs idempotent, and the hot
		// event loop stays untouched.
		e.metrics.Counter("sim.events").Set(int64(e.executed))
		e.metrics.Float("sim.time_sec", stats.AggSum).Set(e.now)
	}()
	e.drive()
	var err error
	switch {
	case e.fatal != nil:
		// A process body or callback panicked. Reap the blocked processes
		// first, so a recovered panic leaks nothing; the panic is re-raised
		// below.
		e.killAll()
	case e.abortErr != nil:
		// A process fail-stopped the run (Proc.Abort). Tear the simulation
		// down exactly like Stop and surface the structured cause: a fault
		// that exhausted its retry budget is an outcome, not a deadlock.
		err = fmt.Errorf("%w: %w", ErrAborted, e.abortErr)
		e.abortErr = nil
		e.Stop()
	case e.intrErr != nil:
		// An interrupt check aborted the run. Tear the simulation down
		// exactly like Stop: the remaining events can never legitimately
		// fire and the caller gets the cause, not a deadlock report.
		err = fmt.Errorf("%w: %w", ErrInterrupted, e.intrErr)
		e.intrErr = nil
		e.Stop()
	case len(e.live) > 0:
		procs := e.liveInSpawnOrder(nil)
		names := make([]string, len(procs))
		for i, p := range procs {
			names[i] = p.name
		}
		e.killAll()
		err = fmt.Errorf("%w, %d process(es) still blocked: [%s]",
			ErrDeadlock, len(procs), strings.Join(names, " "))
	}
	if f := e.fatal; f != nil {
		// Also reached when a process's unwind panicked during teardown.
		e.fatal = nil
		panic(f)
	}
	return err
}

// liveInSpawnOrder snapshots the live processes sorted by spawn order,
// excluding the running process (which cannot be reaped by itself).
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

// killAll terminates every live process by resuming it with the killed
// flag set; the process panics with errKilled, which the worker loop
// absorbs, and its coroutine yields back here once it has retired. Victims
// are snapshotted once and reaped in spawn order — linear work and a stable
// order, where re-scanning the live map per kill would be O(n²) and
// order-random. The outer loop only repeats if a victim's unwind (a user
// defer) spawned new processes. A panic in a victim's unwind is trapped for
// Run and reaping continues, so one bad defer strands no other process.
func (e *Engine) killAll() {
	caller := e.current
	for {
		victims := e.liveInSpawnOrder(caller)
		if len(victims) == 0 {
			break
		}
		for _, p := range victims {
			if p.done {
				continue
			}
			p.killed = true
			e.current = p
			e.resume(p.w)
		}
	}
	e.current = caller
	// If a running process killed the engine (from its body, or from a
	// callback its event loop fired), it is marked for unwinding too and
	// reaps itself when it next blocks (see Proc.block).
	if caller != nil {
		caller.killed = true
	}
}

// closePool ends the parked coroutines. Only parked ones are ever pooled: a
// worker joins the pool as the last thing it does before yielding.
func (e *Engine) closePool() {
	for _, w := range e.workers {
		if w.stop != nil {
			w.stop()
		}
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
