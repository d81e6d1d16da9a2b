package sim

import (
	"testing"
)

func TestClockStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %g, want 0", e.Now())
	}
}

func TestDelayAdvancesClock(t *testing.T) {
	e := NewEngine()
	var end float64
	e.Spawn("p", func(p *Proc) {
		p.Delay(1.5)
		p.Delay(2.5)
		end = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 4.0 {
		t.Fatalf("end = %g, want 4.0", end)
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.ScheduleStep(3, Step{Fn: func() { order = append(order, 3) }})
	e.ScheduleStep(1, Step{Fn: func() { order = append(order, 1) }})
	e.ScheduleStep(2, Step{Fn: func() { order = append(order, 2) }})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSameTimeEventsFireInScheduleOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.ScheduleStep(1, Step{Fn: func() { order = append(order, i) }})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.ScheduleStep(5, Step{Fn: func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.ScheduleStep(1-e.Now(), Step{Fn: func() {}})
	}})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSpawnActivatesAtCurrentTime(t *testing.T) {
	e := NewEngine()
	var start float64 = -1
	e.ScheduleStep(7, Step{Fn: func() {
		e.Spawn("late", func(p *Proc) { start = p.Now() })
	}})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if start != 7 {
		t.Fatalf("start = %g, want 7", start)
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := NewEngine()
	e.Spawn("stuck", func(p *Proc) { p.Suspend() }) // never woken
	if err := e.Run(); err == nil {
		t.Fatal("Run did not report deadlock")
	}
}

func TestRunWithNoEvents(t *testing.T) {
	e := NewEngine()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestManyProcessesDeterministic(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var log []string
		for i := 0; i < 20; i++ {
			name := string(rune('a' + i))
			e.Spawn(name, func(p *Proc) {
				p.Delay(float64(20 - len(log))) // data-dependent delays
				log = append(log, p.Name())
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run not deterministic at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestProcessPanicPropagates(t *testing.T) {
	e := NewEngine()
	e.Spawn("boom", func(p *Proc) { panic("boom") })
	defer func() {
		if recover() == nil {
			t.Error("panic in process did not propagate from Run")
		}
	}()
	_ = e.Run()
}

func TestStopKillsProcesses(t *testing.T) {
	e := NewEngine()
	e.Spawn("stuck", func(p *Proc) { p.Suspend() }) // never woken
	e.ScheduleStep(1, Step{Fn: e.Stop})
	// Run drains: the stop event fires, killing the process and clearing
	// the queue, so Run returns with no deadlock.
	if err := e.Run(); err != nil {
		t.Fatalf("Run after Stop: %v", err)
	}
}

func TestRunAfterStopErrors(t *testing.T) {
	e := NewEngine()
	e.ScheduleStep(1, Step{Fn: func() {}})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Stop()
	if err := e.Run(); err == nil {
		t.Fatal("Run on a stopped engine did not error")
	}
}

func TestSpawnAfterStopPanics(t *testing.T) {
	e := NewEngine()
	e.Stop()
	defer func() {
		if recover() == nil {
			t.Error("Spawn on a stopped engine did not panic")
		}
	}()
	e.Spawn("late", func(p *Proc) {})
}

// join is a process's completion, which other processes wait on: exit
// wakes every waiter in the order it began waiting, and a wait after exit
// returns at once.
type join struct {
	done    bool
	waiters []Step
}

// wait parks p until the joined process exits.
func (j *join) wait(p *Proc) {
	if !j.done {
		j.waiters = append(j.waiters, Step{P: p})
		p.Suspend()
	}
}

// spawnDone spawns body and returns its join, released as body exits,
// also when it is killed.
func spawnDone(e *Engine, name string, body func(*Proc)) *join {
	j := &join{}
	e.Spawn(name, func(p *Proc) {
		defer func() {
			j.done = true
			for _, k := range j.waiters {
				e.ScheduleStep(0, k)
			}
		}()
		body(p)
	})
	return j
}

func TestStopWithExitSignalWaiters(t *testing.T) {
	// Killing a process whose exit others wait on wakes its waiters
	// during teardown; that must not try to schedule on the stopped
	// engine.
	e := NewEngine()
	child := spawnDone(e, "child", func(p *Proc) { p.Suspend() })
	e.Spawn("parent", func(p *Proc) { child.wait(p) })
	worker := spawnDone(e, "worker", func(p *Proc) { p.Suspend() })
	e.Spawn("waiter", func(p *Proc) { worker.wait(p) })
	e.ScheduleStep(1, Step{Fn: e.Stop})
	if err := e.Run(); err != nil {
		t.Fatalf("Run with Stop teardown: %v", err)
	}
}

func TestZeroDelayPreservesEventOrder(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Spawn("a", func(p *Proc) {
		e.ScheduleStep(0, Step{Fn: func() { order = append(order, "event") }})
		p.Delay(0)
		order = append(order, "proc")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "event" || order[1] != "proc" {
		t.Fatalf("order = %v, want [event proc]", order)
	}
}

func TestEventsCounter(t *testing.T) {
	e := NewEngine()
	if e.Events() != 0 {
		t.Fatal("fresh engine has executed events")
	}
	for i := 0; i < 5; i++ {
		e.ScheduleStep(float64(i), Step{Fn: func() {}})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Events() != 5 {
		t.Fatalf("Events = %d, want 5", e.Events())
	}
}
