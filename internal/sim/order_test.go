package sim

import (
	"fmt"
	"testing"
)

// TestSameInstantInterleavings pins the contract the same-instant FIFO lane
// must preserve: every occurrence scheduled for one instant — At at the
// current time, After(0, …), Yield resumptions, and wakeups — fires in
// exactly the order it was scheduled, even when the instant was entered
// through a heap event scheduled long before.
func TestSameInstantInterleavings(t *testing.T) {
	type step struct {
		kind string // "at", "after0", "yield", "wake", "future-at"
		tag  string
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{
			name: "events then yield",
			steps: []step{
				{"after0", "e1"}, {"after0", "e2"}, {"yield", "y"}, {"after0", "e3"},
			},
		},
		{
			name: "yield first",
			steps: []step{
				{"yield", "y"}, {"after0", "e1"}, {"at", "e2"},
			},
		},
		{
			name: "wake between events",
			steps: []step{
				{"after0", "e1"}, {"wake", "w"}, {"after0", "e2"},
			},
		},
		{
			name: "wake then yield then events",
			steps: []step{
				{"wake", "w"}, {"yield", "y"}, {"at", "e1"}, {"after0", "e2"},
			},
		},
		{
			name: "everything at once",
			steps: []step{
				{"at", "e1"}, {"wake", "w1"}, {"after0", "e2"}, {"yield", "y"},
				{"wake", "w2"}, {"after0", "e3"},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			var got, first, second []string
			// Enter the test instant through a future heap event, so the
			// instant mixes heap residue with ring traffic. All steps are
			// scheduled in one stretch; they fire in scheduling order,
			// except that a Yield resumption is (by definition) scheduled
			// only when its process activates — after everything scheduled
			// in the stretch — so yield tags land in a second wave, again
			// in scheduling order.
			const instant = 5.0
			e.At(instant, func() {
				for _, s := range tc.steps {
					tag := s.tag
					switch s.kind {
					case "at":
						first = append(first, tag)
						e.At(instant, func() { got = append(got, tag) })
					case "after0":
						first = append(first, tag)
						e.After(0, func() { got = append(got, tag) })
					case "wake":
						// A waiter on an already-fired signal resumes at
						// its activation slot: in scheduling position.
						first = append(first, tag)
						sg := NewSignal(e)
						sg.Fire()
						e.Spawn("waiter."+tag, func(p *Proc) {
							p.WaitSignal(sg)
							got = append(got, tag)
						})
					case "yield":
						second = append(second, tag)
						e.Spawn("yielder."+tag, func(p *Proc) {
							p.Yield()
							got = append(got, tag)
						})
					}
				}
			})
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			want := append(append([]string{}, first...), second...)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("firing order = %v, want %v", got, want)
			}
		})
	}
}

// TestWakeupOrderRelativeToEvents pins where a parked process's wakeup
// lands: Fire schedules the resumptions at fire time, so same-instant
// events scheduled before the Fire call run first and the waiters resume
// afterwards, in the order they began waiting.
func TestWakeupOrderRelativeToEvents(t *testing.T) {
	e := NewEngine()
	var order []string
	s := NewSignal(e)
	e.Spawn("w1", func(p *Proc) { p.WaitSignal(s); order = append(order, "w1") })
	e.Spawn("w2", func(p *Proc) { p.WaitSignal(s); order = append(order, "w2") })
	e.At(1, func() { order = append(order, "before") })
	e.At(1, func() { s.Fire() })
	e.At(1, func() { order = append(order, "after") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[before after w1 w2]"
	if fmt.Sprint(order) != want {
		t.Fatalf("order = %v, want %s", order, want)
	}
}

// TestHeapResidueFiresBeforeRingAtSameInstant pins the lane-merge rule: an
// event scheduled from an earlier instant for time T (heap) must fire
// before any event scheduled at T itself (ring), because it holds the
// smaller sequence number.
func TestHeapResidueFiresBeforeRingAtSameInstant(t *testing.T) {
	e := NewEngine()
	var order []string
	e.At(3, func() { order = append(order, "heap-1") }) // seq 1, fires at 3
	e.At(2, func() {
		// Runs at t=2: schedule for t=3; still heap (future), seq 3.
		e.At(3, func() { order = append(order, "heap-2") })
	})
	e.At(3, func() { // seq 2
		// Runs at t=3 between the two heap events: everything scheduled
		// now goes to the ring with larger seqs and must fire after
		// heap-2.
		e.After(0, func() { order = append(order, "ring-1") })
		e.At(3, func() { order = append(order, "ring-2") })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[heap-1 heap-2 ring-1 ring-2]"
	if fmt.Sprint(order) != want {
		t.Fatalf("order = %v, want %s", order, want)
	}
}

// TestInterleavedDelayChains runs many processes with colliding delay
// expiries and checks the full firing schedule is reproducible — the
// kernel-level determinism the golden artifact files rely on.
func TestInterleavedDelayChains(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var log []string
		for i := 0; i < 8; i++ {
			name := fmt.Sprintf("p%d", i)
			step := float64(1+i%3) * 0.5
			e.Spawn(name, func(p *Proc) {
				for j := 0; j < 6; j++ {
					p.Delay(step)
					log = append(log, fmt.Sprintf("%s@%g", name, p.Now()))
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a, b := run(), run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("interleaving not reproducible:\n%v\n%v", a, b)
	}
}

// TestDeadlockReportsProcessesInSpawnOrder pins the killAll satellite: the
// deadlock error lists blocked processes in spawn order, deterministically,
// not in map-iteration order.
func TestDeadlockReportsProcessesInSpawnOrder(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		e := NewEngine()
		s := NewSignal(e)
		for i := 0; i < 6; i++ {
			name := fmt.Sprintf("stuck%d", i)
			e.Spawn(name, func(p *Proc) { p.WaitSignal(s) })
		}
		err := e.Run()
		if err == nil {
			t.Fatal("Run did not report deadlock")
		}
		want := "sim: deadlock, 6 process(es) still blocked: " +
			"[stuck0 stuck1 stuck2 stuck3 stuck4 stuck5]"
		if err.Error() != want {
			t.Fatalf("trial %d: error = %q, want %q", trial, err.Error(), want)
		}
	}
}

// TestJoinAfterExit is the regression test for the done-before-ExitSignal
// window: requesting the exit signal of an already-finished process must
// yield a signal that releases waiters — through Fire, not a bare flag — no
// matter how the signal is reached.
func TestJoinAfterExit(t *testing.T) {
	e := NewEngine()
	child := e.Spawn("child", func(c *Proc) { c.Delay(1) })
	var joinedAt, waitedAt float64 = -1, -1
	e.Spawn("late-joiner", func(p *Proc) {
		p.Delay(10) // child exited long ago
		p.Join(child)
		joinedAt = p.Now()
	})
	e.At(10, func() {
		// Racing path: the signal object obtained after exit must already
		// be fired for any waiter that reaches it.
		s := child.ExitSignal()
		if !s.Fired() {
			t.Error("ExitSignal after exit is not fired")
		}
		e.Spawn("sig-waiter", func(p *Proc) {
			p.WaitSignal(s)
			waitedAt = p.Now()
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if joinedAt != 10 {
		t.Fatalf("late join returned at %g, want 10", joinedAt)
	}
	if waitedAt != 10 {
		t.Fatalf("signal waiter released at %g, want 10", waitedAt)
	}
	if !child.Done() {
		t.Fatal("child not done")
	}
}

// TestExitSignalBeforeAndAfterExitSameInstance checks the lazily-created
// exit signal is a single shared instance across the exit boundary.
func TestExitSignalBeforeAndAfterExitSameInstance(t *testing.T) {
	e := NewEngine()
	child := e.Spawn("child", func(c *Proc) { c.Delay(1) })
	before := child.ExitSignal()
	if before.Fired() {
		t.Fatal("exit signal fired before exit")
	}
	released := 0
	for i := 0; i < 3; i++ {
		e.Spawn("joiner", func(p *Proc) {
			p.Join(child)
			released++
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if after := child.ExitSignal(); after != before {
		t.Fatal("ExitSignal returned a different instance after exit")
	}
	if released != 3 {
		t.Fatalf("released = %d, want 3", released)
	}
}

// TestSpawnReusesWorkers checks the worker pool: sequential process churn
// runs on a bounded set of coroutines and stays correct.
func TestSpawnReusesWorkers(t *testing.T) {
	e := NewEngine()
	total := 0
	e.Spawn("root", func(p *Proc) {
		for i := 0; i < 100; i++ {
			c := e.Spawn("c", func(c *Proc) {
				c.Delay(1)
				total++
			})
			p.Join(c)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if total != 100 {
		t.Fatalf("total = %d, want 100", total)
	}
	// After Run the pool must be drained so no coroutines leak.
	if len(e.workers) != 0 {
		t.Fatalf("worker pool not drained after Run: %d parked", len(e.workers))
	}
}
