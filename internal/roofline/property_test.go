package roofline_test

// Scaling-law property tests: the estimator's predictions must respect the
// architectural monotonicities the paper's sweeps explore — more I/O nodes
// never slow a run, more spindles never slow a run, and a bigger problem
// never finishes earlier. The I/O-partition axis reuses the sweep
// grammar's own valid-size logic (ExpandSweep over an ionodes range keeps
// exactly the partitions the machine offers), so the property is checked on
// the same grid a /sweep would serve.

import (
	"sort"
	"testing"

	"pario/internal/apps/ast"
	"pario/internal/apps/scf"
	"pario/internal/machine"
	"pario/internal/request"
	"pario/internal/roofline"
	"pario/internal/serve"
)

// validPoints expands a one-axis ionodes sweep through the sweep grammar
// and returns the canonical requests sorted by ascending partition size.
func validPoints(t *testing.T, spec serve.SweepSpec) []request.Request {
	t.Helper()
	points, _, _, err := serve.ExpandSweep(spec, 256)
	if err != nil {
		t.Fatalf("ExpandSweep(%+v): %v", spec, err)
	}
	reqs := make([]request.Request, len(points))
	for i, p := range points {
		reqs[i] = p.Req
	}
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].IONodes < reqs[j].IONodes })
	return reqs
}

func estimateOf(t *testing.T, r request.Request) *roofline.Estimate {
	t.Helper()
	est, err := request.Estimate(r)
	if err != nil {
		t.Fatalf("estimate %+v: %v", r, err)
	}
	return est
}

// TestMonotoneInIONodes sweeps every app that takes an I/O-partition size
// across the full valid grid: predicted elapsed time must be non-increasing
// as I/O nodes (and with them spindles and NICs) are added.
func TestMonotoneInIONodes(t *testing.T) {
	cases := []struct {
		name string
		spec serve.SweepSpec
	}{
		{"scf11-original", serve.SweepSpec{App: "scf11", IONodes: "1..64", Input: "SMALL", Version: "original"}},
		{"scf11-prefetch", serve.SweepSpec{App: "scf11", IONodes: "1..64", Input: "LARGE", Version: "prefetch", Procs: "16"}},
		{"scf30", serve.SweepSpec{App: "scf30", IONodes: "1..64", Procs: "32"}},
		{"ast-funnel", serve.SweepSpec{App: "ast", IONodes: "1..64", Procs: "16"}},
		{"ast-collective", serve.SweepSpec{App: "ast", IONodes: "1..64", Procs: "16", Opt: "true"}},
		{"fft", serve.SweepSpec{App: "fft", IONodes: "1..4", Procs: "8", Opt: "both"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reqs := validPoints(t, tc.spec)
			if len(reqs) < 2 {
				t.Fatalf("grid has %d valid partitions, need at least 2", len(reqs))
			}
			prev := estimateOf(t, reqs[0])
			for _, r := range reqs[1:] {
				// Only compare within one optimization setting.
				if r.Opt != reqs[0].Opt && tc.spec.Opt == "both" {
					continue
				}
				cur := estimateOf(t, r)
				if cur.ElapsedSec > prev.ElapsedSec*(1+1e-9) {
					t.Errorf("elapsed grew with I/O nodes: %d nodes %.2fs -> %d nodes %.2fs",
						prev.IONodes, prev.ElapsedSec, cur.IONodes, cur.ElapsedSec)
				}
				prev = cur
			}
		})
	}
}

// TestMonotoneInSpindles doubles the disk count on a fixed machine model:
// predicted elapsed time must never grow.
func TestMonotoneInSpindles(t *testing.T) {
	cfg, err := machine.ParagonLarge(16)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []roofline.Input{
		{App: "scf11", Procs: 16, Input: scf.Large, Version: scf.Original, MemoryKB: scf.DefaultMemoryKB11},
		{App: "scf11", Procs: 16, Input: scf.Large, Version: scf.PassionPrefetch, MemoryKB: scf.DefaultMemoryKB11},
		{App: "scf30", Procs: 32, Input: scf.Medium, CachedPct: 90},
		{App: "ast", Procs: 64, N: ast.DefaultN, Arrays: ast.DefaultArrays, Dumps: ast.DefaultDumps},
		{App: "ast", Procs: 64, Opt: true, N: ast.DefaultN, Arrays: ast.DefaultArrays, Dumps: ast.DefaultDumps},
	}
	for _, in := range inputs {
		prev := -1.0
		for spindles := 1; spindles <= 256; spindles *= 2 {
			m := roofline.NewModel(cfg)
			m.Spindles = spindles
			est, err := m.Estimate(in)
			if err != nil {
				t.Fatalf("%s spindles=%d: %v", in.App, spindles, err)
			}
			if prev >= 0 && est.ElapsedSec > prev*(1+1e-9) {
				t.Errorf("%s/%s: elapsed grew with spindles %d -> %d: %.2fs -> %.2fs",
					in.App, in.Version, spindles/2, spindles, prev, est.ElapsedSec)
			}
			prev = est.ElapsedSec
		}
	}
}

// TestMonotoneInProblemSize orders the problem-size axis per app: a larger
// input deck or class must never be predicted faster.
func TestMonotoneInProblemSize(t *testing.T) {
	t.Run("scf11-inputs", func(t *testing.T) {
		var prev float64
		for _, input := range []string{"SMALL", "MEDIUM", "LARGE"} {
			est := estimateOf(t, mustCanon(t, request.Request{App: "scf11", Procs: 8, Input: input}))
			if est.ElapsedSec < prev {
				t.Errorf("scf11 %s predicted faster than the smaller input (%.2fs < %.2fs)", input, est.ElapsedSec, prev)
			}
			prev = est.ElapsedSec
		}
	})
	t.Run("scf30-inputs", func(t *testing.T) {
		var prev float64
		for _, input := range []string{"SMALL", "MEDIUM", "LARGE"} {
			est := estimateOf(t, mustCanon(t, request.Request{App: "scf30", Procs: 8, Input: input}))
			if est.ElapsedSec < prev {
				t.Errorf("scf30 %s predicted faster than the smaller input (%.2fs < %.2fs)", input, est.ElapsedSec, prev)
			}
			prev = est.ElapsedSec
		}
	})
	t.Run("btio-classes", func(t *testing.T) {
		a := estimateOf(t, mustCanon(t, request.Request{App: "btio", Procs: 16, Class: "A"}))
		b := estimateOf(t, mustCanon(t, request.Request{App: "btio", Procs: 16, Class: "B"}))
		if b.ElapsedSec <= a.ElapsedSec {
			t.Errorf("btio class B (%.2fs) should be slower than class A (%.2fs)", b.ElapsedSec, a.ElapsedSec)
		}
	})
}

func mustCanon(t *testing.T, r request.Request) request.Request {
	t.Helper()
	c, err := request.Canonicalize(r)
	if err != nil {
		t.Fatal(err)
	}
	return c
}
