package sim

import (
	"errors"
	"strings"
	"testing"
)

// abort fail-stops the run from p: AbortRun, then block, where the
// teardown unwinds p.
func abort(p *Proc, err error) {
	p.Engine().AbortRun(err)
	p.Suspend()
}

// TestAbortReturnsCause pins the fail-stop contract: a process aborting
// mid-run stops the event loop promptly, the remaining processes are
// killed, and Run returns the cause wrapped in ErrAborted.
func TestAbortReturnsCause(t *testing.T) {
	eng := NewEngine()
	cause := errors.New("disk 3 on fire")
	var survivorRan bool
	eng.Spawn("victim", func(p *Proc) {
		p.Delay(1)
		abort(p, cause)
		t.Error("aborted process resumed")
	})
	eng.Spawn("bystander", func(p *Proc) {
		p.Delay(5)
		survivorRan = true
	})
	err := eng.Run()
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("Run() = %v, want ErrAborted", err)
	}
	if !errors.Is(err, cause) {
		t.Fatalf("Run() = %v, want cause in chain", err)
	}
	if survivorRan {
		t.Error("bystander ran past the abort point")
	}
	if got := eng.Now(); got != 1 {
		t.Errorf("clock = %g, want 1 (abort instant)", got)
	}
}

// TestAbortStopsEngine: after an aborted run the engine behaves like a
// stopped one — Spawn panics, Run errors.
func TestAbortStopsEngine(t *testing.T) {
	eng := NewEngine()
	eng.Spawn("victim", func(p *Proc) { abort(p, errors.New("boom")) })
	if err := eng.Run(); !errors.Is(err, ErrAborted) {
		t.Fatalf("Run() = %v, want ErrAborted", err)
	}
	if err := eng.Run(); err == nil {
		t.Error("second Run on aborted engine succeeded")
	}
	defer func() {
		if recover() == nil {
			t.Error("Spawn on aborted engine did not panic")
		}
	}()
	eng.Spawn("late", func(p *Proc) {})
}

// TestAbortFirstCauseWins: once a run is aborted nothing else fires, so
// the first Abort in virtual-time order determines the outcome.
func TestAbortFirstCauseWins(t *testing.T) {
	eng := NewEngine()
	first := errors.New("first")
	eng.Spawn("a", func(p *Proc) {
		p.Delay(1)
		abort(p, first)
	})
	eng.Spawn("b", func(p *Proc) {
		p.Delay(2)
		abort(p, errors.New("second"))
	})
	err := eng.Run()
	if !errors.Is(err, first) {
		t.Fatalf("Run() = %v, want the earlier cause", err)
	}
}

// TestAbortFromChildProc: an abort from a process spawned inside another
// process unwinds everything, including the parent blocked on the child's
// completion.
func TestAbortFromChildProc(t *testing.T) {
	eng := NewEngine()
	cause := errors.New("child failed")
	eng.Spawn("parent", func(p *Proc) {
		child := spawnDone(eng, "child", func(c *Proc) {
			c.Delay(1)
			abort(c, cause)
		})
		child.wait(p)
		t.Error("parent resumed past aborted child")
	})
	if err := eng.Run(); !errors.Is(err, cause) {
		t.Fatalf("Run() = %v, want cause", err)
	}
}

// TestAbortNilCause: a nil cause is replaced, never a nil error from Run.
func TestAbortNilCause(t *testing.T) {
	eng := NewEngine()
	eng.Spawn("p", func(p *Proc) { abort(p, nil) })
	if err := eng.Run(); err == nil {
		t.Fatal("Run() = nil after AbortRun(nil)")
	}
}

// TestAtTeardownRunsOnceBeforeUnwind: a teardown hook runs once when an
// aborted run is torn down, at the abort's instant and before the blocked
// processes unwind, and not at all on a run that drains.
func TestAtTeardownRunsOnceBeforeUnwind(t *testing.T) {
	eng := NewEngine()
	var log []string
	eng.AtTeardown(func() { log = append(log, "hook") })
	eng.Spawn("blocked", func(p *Proc) {
		defer func() { log = append(log, "unwind") }()
		p.Suspend() // never woken
	})
	eng.ScheduleStep(2, Step{Fn: func() {
		eng.AtTeardown(func() { log = append(log, "hook2") })
		eng.AbortRun(errors.New("fail-stop"))
	}})
	if err := eng.Run(); !errors.Is(err, ErrAborted) {
		t.Fatalf("Run() = %v, want ErrAborted", err)
	}
	eng.Stop() // a second teardown runs no hook again
	if got := strings.Join(log, " "); got != "hook hook2 unwind" {
		t.Fatalf("teardown order = %q, want %q", got, "hook hook2 unwind")
	}

	clean := NewEngine()
	clean.AtTeardown(func() { t.Error("hook ran on a run that drained") })
	clean.Spawn("p", func(p *Proc) { p.Delay(1) })
	if err := clean.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestContinue: a callback continuation runs inline, a process one is
// woken by a zero-delay event.
func TestContinue(t *testing.T) {
	eng := NewEngine()
	inline := false
	eng.Spawn("p", func(p *Proc) {
		eng.Continue(Step{Fn: func() { inline = true }})
		if !inline {
			t.Error("Fn continuation did not run inline")
		}
		before := eng.Events()
		eng.Continue(Step{P: p})
		p.Suspend()
		if got := eng.Events() - before; got != 1 {
			t.Errorf("P continuation took %d events, want 1", got)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}
