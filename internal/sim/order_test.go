package sim

import (
	"fmt"
	"testing"
)

// TestSameInstantInterleavings pins the contract the same-instant FIFO lane
// must preserve: every occurrence scheduled for one instant — zero-delay
// callbacks, Step wakes of parked processes, resource grants, Spawn
// activations and Delay(0) resumptions ("yield") — fires in exactly the
// order it was scheduled, even when the instant was entered through a
// queued event scheduled long before.
func TestSameInstantInterleavings(t *testing.T) {
	type step struct {
		kind string // "event", "wake", "grant", "spawn", "yield"
		tag  string
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{
			name: "events then yield",
			steps: []step{
				{"event", "e1"}, {"event", "e2"}, {"yield", "y"}, {"event", "e3"},
			},
		},
		{
			name: "yield first",
			steps: []step{
				{"yield", "y"}, {"event", "e1"}, {"event", "e2"},
			},
		},
		{
			name: "wake between events",
			steps: []step{
				{"event", "e1"}, {"wake", "w"}, {"event", "e2"},
			},
		},
		{
			name: "wake then yield then events",
			steps: []step{
				{"wake", "w"}, {"yield", "y"}, {"event", "e1"}, {"grant", "g"}, {"event", "e2"},
			},
		},
		{
			name: "everything at once",
			steps: []step{
				{"event", "e1"}, {"wake", "w1"}, {"spawn", "s"}, {"event", "e2"}, {"yield", "y"},
				{"grant", "g"}, {"wake", "w2"}, {"event", "e3"},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			var got, first, second []string
			// The processes the instant wakes or grants a unit to, parked
			// before it: a sleeper in Suspend, a claimant queued behind a
			// unit the test holds.
			sleepers := map[string]*Proc{}
			held := map[string]*Resource{}
			for _, s := range tc.steps {
				tag := s.tag
				switch s.kind {
				case "wake":
					sleepers[tag] = e.Spawn("sleeper."+tag, func(p *Proc) {
						p.Suspend()
						got = append(got, tag)
					})
				case "grant":
					r := NewResource(e, tag, 1)
					r.Claim(Step{})
					held[tag] = r
					e.Spawn("claimant."+tag, func(p *Proc) {
						if !r.Claim(Step{P: p}) {
							p.Suspend()
						}
						got = append(got, tag)
					})
				}
			}
			// Enter the test instant through a future queued event, so the
			// instant mixes queue residue with ring traffic. All steps are
			// scheduled in one stretch; they fire in scheduling order,
			// except that a Delay(0) resumption is (by definition) scheduled
			// only when its process activates — after everything scheduled
			// in the stretch — so yield tags land in a second wave, again
			// in scheduling order.
			e.ScheduleStep(5, Step{Fn: func() {
				for _, s := range tc.steps {
					tag := s.tag
					if s.kind == "yield" {
						second = append(second, tag)
						e.Spawn("yielder."+tag, func(p *Proc) {
							p.Delay(0)
							got = append(got, tag)
						})
						continue
					}
					first = append(first, tag)
					switch s.kind {
					case "event":
						e.ScheduleStep(0, Step{Fn: func() { got = append(got, tag) }})
					case "wake":
						e.ScheduleStep(0, Step{P: sleepers[tag]})
					case "grant":
						held[tag].Release()
					case "spawn":
						e.Spawn("spawned."+tag, func(*Proc) { got = append(got, tag) })
					}
				}
			}})
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

// TestWakeupOrderRelativeToEvents pins where a parked process's wake
// lands: Release schedules the grant at release time, so same-instant
// events scheduled before the Release run first and the claimants resume
// afterwards, in the order they queued.
func TestWakeupOrderRelativeToEvents(t *testing.T) {
	e := NewEngine()
	var order []string
	r := NewResource(e, "r", 2)
	r.Claim(Step{})
	r.Claim(Step{}) // both units held until t=1
	for _, name := range []string{"w1", "w2"} {
		e.Spawn(name, func(p *Proc) {
			if !r.Claim(Step{P: p}) {
				p.Suspend()
			}
			order = append(order, name)
		})
	}
	e.ScheduleStep(1, Step{Fn: func() { order = append(order, "before") }})
	e.ScheduleStep(1, Step{Fn: func() { r.Release(); r.Release() }})
	e.ScheduleStep(1, Step{Fn: func() { order = append(order, "after") }})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[before after w1 w2]"
	if fmt.Sprint(order) != want {
		t.Fatalf("order = %v, want %s", order, want)
	}
}

// TestHeapResidueFiresBeforeRingAtSameInstant pins the lane-merge rule: an
// event scheduled from an earlier instant for time T (residue of the time
// queue, in its bucket 0 once the clock reaches T) must fire before any
// event scheduled at T itself (ring), because it holds the smaller
// sequence number.
func TestHeapResidueFiresBeforeRingAtSameInstant(t *testing.T) {
	e := NewEngine()
	var order []string
	e.ScheduleStep(3, Step{Fn: func() { order = append(order, "heap-1") }}) // seq 1, fires at 3
	e.ScheduleStep(2, Step{Fn: func() {
		// Runs at t=2: schedule for t=3; still the time queue (future), seq 3.
		e.ScheduleStep(1, Step{Fn: func() { order = append(order, "heap-2") }})
	}})
	e.ScheduleStep(3, Step{Fn: func() { // seq 2
		// Runs at t=3 between the two queued events: everything scheduled
		// now goes to the ring with larger seqs and must fire after
		// heap-2.
		e.ScheduleStep(0, Step{Fn: func() { order = append(order, "ring-1") }})
		e.ScheduleStep(0, Step{Fn: func() { order = append(order, "ring-2") }})
	}})
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
		for i := 0; i < 6; i++ {
			name := fmt.Sprintf("stuck%d", i)
			e.Spawn(name, func(p *Proc) { p.Suspend() }) // never woken
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

// TestSpawnReusesWorkers checks the worker pool: sequential process churn
// runs on a bounded set of coroutines and stays correct.
func TestSpawnReusesWorkers(t *testing.T) {
	e := NewEngine()
	total := 0
	e.Spawn("root", func(p *Proc) {
		for i := 0; i < 100; i++ {
			spawnDone(e, "c", func(c *Proc) {
				c.Delay(1)
				total++
			}).wait(p)
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
