package sim

import (
	"testing"

	"pario/internal/stats"
)

// TestEngineFeedsMetrics checks that Run mirrors the kernel's work
// accounting into the metrics registry.
func TestEngineFeedsMetrics(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.ScheduleStep(float64(i), Step{Fn: func() {}})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	snap := e.Metrics().Snapshot(e.Now())
	var events int64 = -1
	for _, c := range snap.Counters {
		if c.Name == "sim.events" {
			events = c.Value
		}
	}
	if events != int64(e.Events()) {
		t.Fatalf("sim.events = %d, want %d", events, e.Events())
	}
	var simSec float64 = -1
	for _, f := range snap.Floats {
		if f.Name == "sim.time_sec" {
			simSec = f.Value
		}
	}
	if simSec != e.Now() {
		t.Fatalf("sim.time_sec = %g, want %g", simSec, e.Now())
	}
	if e.WallSec() <= 0 {
		t.Fatal("WallSec not tracked across Run")
	}
	if snap.WallSec != 0 {
		t.Fatal("registry snapshot must not carry wall time; that is the caller's field")
	}
}

// TestMetricsRespectStoppedEngine pins the interaction between the
// metrics registry and the stopped-engine contract from PR 1: after Stop
// the engine can be inspected but not reused — so the registry must stay
// readable, its values must be frozen at the kill point, and the cleanup
// of killed processes (which runs through synchronization primitives) must
// not corrupt them.
func TestMetricsRespectStoppedEngine(t *testing.T) {
	e := NewEngine()
	depth := e.Metrics().Series("test.depth")
	res := NewResource(e, "res", 1)
	e.Spawn("holder", func(p *Proc) {
		if !res.Claim(Step{P: p}) {
			p.Suspend()
		}
		depth.Observe(p.Now(), 1)
		p.Delay(100) // still holding at stop time
		res.Release()
	})
	e.Spawn("waiter", func(p *Proc) {
		p.Delay(1)
		if !res.Claim(Step{P: p}) {
			p.Suspend() // blocks forever within the stopped window
		}
		res.Release()
	})
	e.ScheduleStep(2, Step{Fn: e.Stop})
	// Stop fires from inside the event loop: it kills both processes and
	// drops the pending events, so this Run drains cleanly.
	if err := e.Run(); err != nil {
		t.Fatalf("Run interrupted by Stop: %v", err)
	}

	// Inspection still works.
	snap := e.Metrics().Snapshot(e.Now())
	if len(snap.Series) != 1 || snap.Series[0].Max != 1 {
		t.Fatalf("metrics unreadable after Stop: %+v", snap.Series)
	}
	before := snap.Series[0].Integral

	// The engine is inert: scheduling does nothing, re-running errors,
	// and no late wakeup can move the metrics.
	e.ScheduleStep(1, Step{Fn: func() { t.Error("event fired on a stopped engine") }})
	if err := e.Run(); err == nil {
		t.Fatal("Run on stopped engine should error")
	}
	after := e.Metrics().Snapshot(e.Now())
	if after.Series[0].Integral != before {
		t.Fatal("metrics moved on a stopped engine")
	}
}

// TestMetricsSharedByName checks the registry identity the layers rely
// on: components asking for the same metric name feed one instance.
func TestMetricsSharedByName(t *testing.T) {
	e := NewEngine()
	a := e.Metrics().Counter("shared")
	b := e.Metrics().Counter("shared")
	a.Inc()
	b.Inc()
	if a.Value() != 2 {
		t.Fatalf("shared counter = %d, want 2", a.Value())
	}
	var _ *stats.Registry = e.Metrics()
}
