package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"pario/internal/sim"
)

// TestRunRanksCtxNilBehavesLikeRunRanks pins the compatibility contract:
// a nil context leaves the run unbounded and changes nothing.
func TestRunRanksCtxNilBehavesLikeRunRanks(t *testing.T) {
	rep := runSP2(t, 4, only(func(_ *System, p *sim.Proc, rank int) {
		p.Delay(float64(rank + 1))
	}))
	if rep.ExecSec != 4 {
		t.Fatalf("wall = %g, want 4", rep.ExecSec)
	}
}

// TestRunRanksCtxAlreadyCanceled verifies a dead context never builds the
// system, let alone starts the simulation.
func TestRunRanksCtxAlreadyCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, Spec{Machine: sp2(t), Procs: 2}, func(*System) (Body, error) {
		t.Error("setup ran under a canceled context")
		return nil, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunRanksCtxCancelMidRun cancels a long run from outside and verifies
// the call returns the context's error promptly instead of simulating to
// completion (the ranks would otherwise run two million delay events).
func TestRunRanksCtxCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := Run(ctx, Spec{Machine: sp2(t), Procs: 2}, only(func(_ *System, p *sim.Proc, rank int) {
		for i := 0; i < 1_000_000; i++ {
			p.Delay(1e-6)
			// Keep each event non-trivial so the run is long enough to
			// straddle the asynchronous cancel.
			for j := 0; j < 100; j++ {
				_ = j
			}
		}
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, simulation was not torn down promptly", elapsed)
	}
}

// TestRunRanksCtxDeadline verifies deadline expiry surfaces as
// context.DeadlineExceeded.
func TestRunRanksCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err := Run(ctx, Spec{Machine: sp2(t), Procs: 2}, only(func(_ *System, p *sim.Proc, rank int) {
		for i := 0; i < 10_000_000; i++ {
			p.Delay(1e-6)
		}
	}))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}
