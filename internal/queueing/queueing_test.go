package queueing

import (
	"math"
	"testing"
	"testing/quick"

	"pario/internal/sim"
)

func TestMM1KnownValues(t *testing.T) {
	// lambda=0.5, mu=1: rho=0.5, Wq = 0.5/(1-0.5) = 1.
	w, err := MM1MeanWait(0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w-1) > 1e-12 {
		t.Fatalf("MM1 Wq = %g, want 1", w)
	}
	l, err := MM1MeanNumber(0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l-1) > 1e-12 {
		t.Fatalf("MM1 L = %g, want 1", l)
	}
}

func TestMD1IsHalfMM1(t *testing.T) {
	mm1, _ := MM1MeanWait(0.7, 1)
	md1, _ := MD1MeanWait(0.7, 1)
	if math.Abs(md1-mm1/2) > 1e-12 {
		t.Fatalf("MD1 %g != MM1/2 %g", md1, mm1/2)
	}
}

func TestMG1GeneralizesBoth(t *testing.T) {
	lambda, mu := 0.6, 1.0
	md1, _ := MD1MeanWait(lambda, mu)
	mm1, _ := MM1MeanWait(lambda, mu)
	g0, _ := MG1MeanWait(lambda, mu, 0)
	g1, _ := MG1MeanWait(lambda, mu, 1)
	if math.Abs(g0-md1) > 1e-12 || math.Abs(g1-mm1) > 1e-12 {
		t.Fatalf("PK formula disagrees: g0=%g md1=%g g1=%g mm1=%g", g0, md1, g1, mm1)
	}
}

func TestUnstableRejected(t *testing.T) {
	if _, err := MM1MeanWait(1, 1); err == nil {
		t.Fatal("rho=1 accepted")
	}
	if _, err := MD1MeanWait(2, 1); err == nil {
		t.Fatal("rho>1 accepted")
	}
	if _, err := MMcErlangC(4, 1, 3); err == nil {
		t.Fatal("unstable M/M/c accepted")
	}
	if _, err := MG1MeanWait(0.5, 1, -1); err == nil {
		t.Fatal("negative cv accepted")
	}
}

func TestErlangCSingleServerIsRho(t *testing.T) {
	// For c=1, the probability of queueing equals rho.
	pc, err := MMcErlangC(0.3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pc-0.3) > 1e-12 {
		t.Fatalf("Erlang-C(c=1) = %g, want rho=0.3", pc)
	}
}

func TestMMcWaitDecreasesWithServers(t *testing.T) {
	w1, _ := MMcMeanWait(0.8, 1, 1)
	w2, _ := MMcMeanWait(0.8, 1, 2)
	w4, _ := MMcMeanWait(0.8, 1, 4)
	if !(w4 < w2 && w2 < w1) {
		t.Fatalf("waits = %g, %g, %g — not decreasing with servers", w1, w2, w4)
	}
}

func TestRelErr(t *testing.T) {
	if RelErr(0, 0) != 0 {
		t.Fatal("RelErr(0,0) != 0")
	}
	if math.Abs(RelErr(90, 100)-0.1) > 1e-12 {
		t.Fatalf("RelErr(90,100) = %g", RelErr(90, 100))
	}
}

// simulateQueue drives a sim.Resource with Poisson arrivals and
// deterministic service and returns the observed mean queue wait. Each job
// claims the resource the way the devices do: an arrival event claims it
// with a continuation, and a release event ends service, so the oracle
// checks the claim path every disk, CPU and NIC request takes.
func simulateQueue(t *testing.T, lambda, service float64, jobs int, seed uint64) float64 {
	t.Helper()
	e := sim.NewEngine()
	r := sim.NewResource(e, "q", 1)
	rng := sim.NewRNG(seed)
	release := sim.Step{Fn: r.Release}
	serve := sim.Step{Fn: func() { e.ScheduleStep(service, release) }}
	arrival := func() {
		if r.Claim(serve) {
			serve.Fn()
		}
	}
	var arrive float64
	for i := 0; i < jobs; i++ {
		arrive += rng.Exp(1 / lambda)
		e.ScheduleStep(arrive, sim.Step{Fn: arrival}) // the clock reads 0 until Run
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return r.TotalWait() / float64(jobs)
}

// TestKernelMatchesMD1 validates the simulation kernel against theory:
// Poisson arrivals into a capacity-1 resource with deterministic service
// must reproduce the M/D/1 mean wait.
func TestKernelMatchesMD1(t *testing.T) {
	const (
		lambda  = 0.6
		service = 1.0 // mu = 1
		jobs    = 60000
	)
	want, err := MD1MeanWait(lambda, 1/service)
	if err != nil {
		t.Fatal(err)
	}
	got := simulateQueue(t, lambda, service, jobs, 12345)
	if RelErr(got, want) > 0.08 {
		t.Fatalf("simulated M/D/1 wait %g vs theory %g (err %.1f%%)",
			got, want, 100*RelErr(got, want))
	}
}

func TestKernelMatchesMD1HighLoad(t *testing.T) {
	const lambda = 0.85
	want, _ := MD1MeanWait(lambda, 1)
	got := simulateQueue(t, lambda, 1, 120000, 999)
	if RelErr(got, want) > 0.12 {
		t.Fatalf("high-load M/D/1: simulated %g vs theory %g", got, want)
	}
}

// Property: PK wait is monotone in the load for fixed mu and cv.
func TestWaitMonotoneInLoadProperty(t *testing.T) {
	f := func(a, b uint8) bool {
		la := 0.01 + 0.97*float64(a)/255
		lb := 0.01 + 0.97*float64(b)/255
		if la > lb {
			la, lb = lb, la
		}
		wa, err1 := MG1MeanWait(la, 1, 0.5)
		wb, err2 := MG1MeanWait(lb, 1, 0.5)
		return err1 == nil && err2 == nil && wa <= wb+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
