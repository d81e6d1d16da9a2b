package sim

import (
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
		if avg := testing.AllocsPerRun(200, func() { p.Yield() }); avg != 0 {
			t.Errorf("Yield allocates %g/op on steady state, want 0", avg)
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

func TestResourceAllocationFree(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "r", 1)
	checked := false
	e.Spawn("p", func(p *Proc) {
		r.Use(p, 1) // warm
		if avg := testing.AllocsPerRun(200, func() {
			r.Acquire(p)
			r.Release()
		}); avg != 0 {
			t.Errorf("uncontended Acquire/Release allocates %g/op, want 0", avg)
		}
		if avg := testing.AllocsPerRun(200, func() { r.Use(p, 1) }); avg != 0 {
			t.Errorf("Use allocates %g/op on steady state, want 0", avg)
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
// acquire/release cycles — each a queue append, a wake record, and a
// process handoff — must run allocation-free modulo the fixed per-Run and
// per-Spawn setup.
func TestContendedResourceSteadyStateAllocs(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "r", 1)
	// Warmup run grows every queue involved.
	for i := 0; i < 4; i++ {
		e.Spawn("warm", func(p *Proc) {
			for j := 0; j < 32; j++ {
				r.Use(p, 1)
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
				r.Use(p, 1)
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
		t.Fatalf("contended Use allocates %g/op on steady state, want ~0", perOp)
	}
}
