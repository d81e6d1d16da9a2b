package sim

import (
	"math"
	"runtime"
	"testing"
)

// The kernel's hot paths must not allocate per operation on steady state:
// wakeups are proc-wake records in pre-grown queues, not closures. These
// assertions are the regression fence for the allocation-free fast path.

func TestDelayAllocationFree(t *testing.T) {
	e := NewEngine()
	checked := false
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < 8; i++ {
			p.Delay(1) // warm the event queues
		}
		if avg := testing.AllocsPerRun(200, func() { p.Delay(1) }); avg != 0 {
			t.Errorf("Delay allocates %g/op on steady state, want 0", avg)
		}
		if avg := testing.AllocsPerRun(200, func() { p.Delay(0) }); avg != 0 {
			t.Errorf("Delay(0) allocates %g/op on steady state, want 0", avg)
		}
		checked = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !checked {
		t.Fatal("allocation check did not run")
	}
}

// TestEventQueueAllocationFree pins the radix queue's steady state: at a
// constant depth of 64, a push and a pop reuse the node the pop freed, and
// a redistribution only relinks nodes.
func TestEventQueueAllocationFree(t *testing.T) {
	var q eventQueue
	var seq uint64
	push := func() {
		seq++
		now := math.Float64frombits(q.base)
		q.push(event{at: now + queueDelays[seq%uint64(len(queueDelays))], seq: seq})
	}
	for i := 0; i < 64; i++ {
		push()
	}
	for i := 0; i < 1000; i++ { // warm: every bucket the delays reach
		push()
		q.pop()
	}
	if avg := testing.AllocsPerRun(1000, func() {
		push()
		q.pop()
	}); avg != 0 {
		t.Errorf("push/pop at depth 64 allocates %g/op, want 0", avg)
	}
}

func TestResourceAllocationFree(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "r", 1)
	hold := holdFor(e, r, 1)
	checked := false
	e.Spawn("p", func(p *Proc) {
		use(p, r, 1) // warm
		if avg := testing.AllocsPerRun(200, func() {
			if !r.Claim(Step{P: p}) {
				p.Suspend()
			}
			r.Release()
		}); avg != 0 {
			t.Errorf("uncontended Claim/Release allocates %g/op, want 0", avg)
		}
		// A unit held by a release event, as a device holds one, with the
		// process queued behind it and granted by its own wake.
		if avg := testing.AllocsPerRun(200, func() {
			if r.Claim(hold) {
				hold.Fn()
			}
			use(p, r, 1)
		}); avg != 0 {
			t.Errorf("contended Claim allocates %g/op on steady state, want 0", avg)
		}
		checked = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !checked {
		t.Fatal("allocation check did not run")
	}
}

// TestContendedResourceSteadyStateAllocs bounds the whole-kernel allocation
// rate under queued handoffs: after warmup, thousands of contended
// claim/release cycles — each a queue append, a wake record, and a
// process handoff — must run allocation-free modulo the fixed per-Run and
// per-Spawn setup.
func TestContendedResourceSteadyStateAllocs(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "r", 1)
	// Warmup run grows every queue involved.
	for i := 0; i < 4; i++ {
		e.Spawn("warm", func(p *Proc) {
			for j := 0; j < 32; j++ {
				use(p, r, 1)
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}

	const procs, uses = 4, 2500
	for i := 0; i < procs; i++ {
		e.Spawn("u", func(p *Proc) {
			for j := 0; j < uses; j++ {
				use(p, r, 1)
			}
		})
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.Mallocs-before.Mallocs) / float64(procs*uses)
	// The fixed costs (Run bookkeeping and the 4 worker coroutines, which
	// start on their first resume inside Run) must amortize to well under
	// one allocation per hundred operations.
	if perOp > 0.01 {
		t.Fatalf("contended claims allocate %g/op on steady state, want ~0", perOp)
	}
}
