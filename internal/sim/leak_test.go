package sim

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// populate gives a run live coroutines to tear down and parked ones to
// release: three processes blocked for good on a signal, one looping on
// Delay, and two that exit early so the worker pool is non-empty.
func populate(e *Engine) {
	stuck := NewSignal(e)
	for i := 0; i < 3; i++ {
		e.Spawn("stuck", func(p *Proc) { p.WaitSignal(stuck) })
	}
	e.Spawn("looper", func(p *Proc) {
		for p.Now() < 5 {
			p.Delay(1)
		}
	})
	for i := 0; i < 2; i++ {
		e.Spawn("short", func(p *Proc) { p.Delay(0.5) })
	}
}

// runRecovered runs e and returns Run's error and any panic it raised.
func runRecovered(e *Engine) (err error, pan any) {
	defer func() { pan = recover() }()
	return e.Run(), nil
}

// TestRunLeaksNoGoroutines runs every way a Run can end many times over and
// checks the goroutine count returns to its baseline: blocked processes are
// reaped and parked coroutines released on every path, panics included.
func TestRunLeaksNoGoroutines(t *testing.T) {
	errCause := errors.New("cause")
	cases := []struct {
		name  string
		setup func(e *Engine)
		check func(t *testing.T, err error, pan any)
	}{
		{"drain", func(e *Engine) {
			for i := 0; i < 4; i++ {
				e.Spawn("p", func(p *Proc) { p.Delay(float64(i)) })
			}
		}, wantErr(nil)},
		{"deadlock", populate, wantErr(ErrDeadlock)},
		{"proc abort", func(e *Engine) {
			populate(e)
			e.Spawn("aborter", func(p *Proc) {
				p.Delay(2)
				p.Abort(errCause)
			})
		}, wantErr(ErrAborted)},
		{"engine abort", func(e *Engine) {
			populate(e)
			e.At(2, func() { e.AbortRun(errCause) })
		}, wantErr(ErrAborted)},
		{"interrupt", func(e *Engine) {
			populate(e)
			tripped := false
			e.At(2, func() { tripped = true })
			e.SetInterrupt(func() error {
				if tripped {
					return errCause
				}
				return nil
			})
			// Keep the interrupt poll coming: one event per stride.
			e.Spawn("ticker", func(p *Proc) {
				for {
					p.Delay(0.001)
				}
			})
		}, wantErr(ErrInterrupted)},
		{"panic in process", func(e *Engine) {
			populate(e)
			e.Spawn("boom", func(p *Proc) {
				p.Delay(2)
				panic("boom")
			})
		}, wantPanic("boom")},
		{"panic in callback", func(e *Engine) {
			populate(e)
			e.At(2, func() { panic("boom") })
		}, wantPanic("boom")},
		{"panic in callback fired by a process", func(e *Engine) {
			populate(e)
			e.Spawn("firer", func(p *Proc) {
				p.Delay(2)
				e.After(0, func() { panic("boom") })
				p.Delay(1)
			})
		}, wantPanic("boom")},
		{"stop from process", func(e *Engine) {
			populate(e)
			e.Spawn("stopper", func(p *Proc) {
				p.Delay(2)
				e.Stop()
			})
		}, wantErr(nil)},
		{"stop from callback after a process exits", func(e *Engine) {
			// The callbacks are the first events after "exiting" retires:
			// the first takes its parked worker for a new process, the
			// second stops the engine before that process ever runs.
			populate(e)
			e.Spawn("exiting", func(p *Proc) {
				p.Delay(2.5) // alone at its instant
				e.After(0, func() { e.Spawn("late", func(*Proc) {}) })
				e.After(0, e.Stop)
			})
		}, wantErr(nil)},
		{"dropped after run", func(e *Engine) {
			for i := 0; i < 8; i++ {
				e.Spawn("churn", func(p *Proc) {
					p.Join(e.Spawn("child", func(c *Proc) { c.Delay(1) }))
				})
			}
		}, wantErr(nil)},
		{"dropped before run", func(e *Engine) {
			populate(e)
			e.Stop() // Run then errors: the processes never ran
		}, func(t *testing.T, err error, pan any) {
			if err == nil || pan != nil {
				t.Fatalf("Run on stopped engine = %v, panic %v; want an error", err, pan)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			for i := 0; i < 20; i++ {
				e := NewEngine()
				tc.setup(e)
				err, pan := runRecovered(e)
				tc.check(t, err, pan)
			}
			if got := settledGoroutines(base); got > base {
				t.Fatalf("goroutines: %d after 20 runs, baseline %d", got, base)
			}
		})
	}
}

// settledGoroutines polls briefly for the goroutine count to fall back to
// base (an exited goroutine is reaped asynchronously) and returns the last
// reading.
func settledGoroutines(base int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > base && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

func wantErr(target error) func(*testing.T, error, any) {
	return func(t *testing.T, err error, pan any) {
		t.Helper()
		if pan != nil {
			t.Fatalf("Run panicked: %v", pan)
		}
		if !errors.Is(err, target) {
			t.Fatalf("Run() = %v, want %v", err, target)
		}
	}
}

func wantPanic(v any) func(*testing.T, error, any) {
	return func(t *testing.T, err error, pan any) {
		t.Helper()
		if pan != v {
			t.Fatalf("Run() = %v, panic %v; want panic %v", err, pan, v)
		}
	}
}
