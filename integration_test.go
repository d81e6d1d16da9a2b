// Cross-module integration tests: invariants that must hold across the
// whole stack — applications, I/O libraries, file system and kernel
// together — at moderate scale.
package pario_test

import (
	"testing"

	"pario/internal/apps/ast"
	"pario/internal/apps/btio"
	"pario/internal/apps/fft"
	"pario/internal/apps/scf"
	"pario/internal/core"
	"pario/internal/machine"
	"pario/internal/trace"
)

// runAll executes a small configuration of every application and returns
// the reports keyed by name.
func runAll(t *testing.T) map[string]core.Report {
	t.Helper()
	pl, err := machine.ParagonLarge(12)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := machine.ParagonSmall(2)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := machine.SP2()
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]core.Report{}
	r, err := core.Run(nil, core.Spec{Machine: pl, Procs: 4}, scf.Config11{Input: scf.Input{Name: "t", N: 32}, Version: scf.Passion}.Setup)
	if err != nil {
		t.Fatal(err)
	}
	out["scf11"] = r
	r, err = core.Run(nil, core.Spec{Machine: pl, Procs: 4}, scf.Config30{Input: scf.Input{Name: "t", N: 32}, CachedPct: 50, Balance: true}.Setup)
	if err != nil {
		t.Fatal(err)
	}
	out["scf30"] = r
	r, err = core.Run(nil, core.Spec{Machine: ps, Procs: 4}, fft.Config{N: 256, BufferBytes: 256 << 10}.Setup)
	if err != nil {
		t.Fatal(err)
	}
	out["fft"] = r
	r, err = core.Run(nil, core.Spec{Machine: sp, Procs: 4}, btio.Config{Class: btio.Class{Name: "t", N: 16, Dumps: 3}}.Setup)
	if err != nil {
		t.Fatal(err)
	}
	out["btio"] = r
	r, err = core.Run(nil, core.Spec{Machine: pl, Procs: 4}, ast.Config{N: 256, Arrays: 2, Dumps: 2}.Setup)
	if err != nil {
		t.Fatal(err)
	}
	out["ast"] = r
	return out
}

// TestEveryApplicationReportIsCoherent checks universal report invariants
// for all five applications.
func TestEveryApplicationReportIsCoherent(t *testing.T) {
	for name, rep := range runAll(t) {
		if rep.ExecSec <= 0 {
			t.Errorf("%s: non-positive exec time", name)
		}
		if rep.IOMaxSec <= 0 || rep.IOMaxSec > rep.ExecSec {
			t.Errorf("%s: per-process I/O %g outside (0, exec=%g]", name, rep.IOMaxSec, rep.ExecSec)
		}
		if rep.IOAggSec+1e-9 < rep.IOMaxSec {
			t.Errorf("%s: aggregate I/O %g below per-process max %g", name, rep.IOAggSec, rep.IOMaxSec)
		}
		if rep.IOAggSec > rep.IOMaxSec*float64(rep.Procs)+1e-9 {
			t.Errorf("%s: aggregate I/O %g exceeds procs*max", name, rep.IOAggSec)
		}
		total := rep.Trace.Total()
		if total.Count <= 0 {
			t.Errorf("%s: no traced operations", name)
		}
		if rep.BytesRead < 0 || rep.BytesWritten < 0 {
			t.Errorf("%s: negative volumes", name)
		}
		if len(rep.PerRankIOSec) != rep.Procs {
			t.Errorf("%s: per-rank entries %d != procs %d", name, len(rep.PerRankIOSec), rep.Procs)
		}
		if im := rep.IOImbalance(); im < 1.0 {
			t.Errorf("%s: imbalance %g below 1", name, im)
		}
	}
}

// TestEveryApplicationIsDeterministic runs each app twice and compares the
// full report.
func TestEveryApplicationIsDeterministic(t *testing.T) {
	a, b := runAll(t), runAll(t)
	for name := range a {
		ra, rb := a[name], b[name]
		if ra.ExecSec != rb.ExecSec || ra.IOAggSec != rb.IOAggSec {
			t.Errorf("%s: runs differ: exec %g vs %g, I/O %g vs %g",
				name, ra.ExecSec, rb.ExecSec, ra.IOAggSec, rb.IOAggSec)
		}
		if ra.Trace.Total() != rb.Trace.Total() {
			t.Errorf("%s: traced totals differ", name)
		}
	}
}

// TestOptimizationsNeverIncreaseExecTime applies each application's paper
// optimization at its test scale and requires an improvement.
func TestOptimizationsNeverIncreaseExecTime(t *testing.T) {
	pl, _ := machine.ParagonLarge(12)
	ps, _ := machine.ParagonSmall(2)
	sp, _ := machine.SP2()

	type pair struct {
		name      string
		base, opt func() (core.Report, error)
	}
	pairs := []pair{
		{
			"scf11 interface+prefetch",
			func() (core.Report, error) {
				return core.Run(nil, core.Spec{Machine: pl, Procs: 4}, scf.Config11{Input: scf.Input{Name: "t", N: 32}, Version: scf.Original}.Setup)
			},
			func() (core.Report, error) {
				return core.Run(nil, core.Spec{Machine: pl, Procs: 4}, scf.Config11{Input: scf.Input{Name: "t", N: 32}, Version: scf.PassionPrefetch}.Setup)
			},
		},
		{
			"fft layout",
			func() (core.Report, error) {
				return core.Run(nil, core.Spec{Machine: ps, Procs: 4}, fft.Config{N: 256, BufferBytes: 256 << 10}.Setup)
			},
			func() (core.Report, error) {
				return core.Run(nil, core.Spec{Machine: ps, Procs: 4}, fft.Config{N: 256, BufferBytes: 256 << 10, OptimizedLayout: true}.Setup)
			},
		},
		{
			"btio collective",
			func() (core.Report, error) {
				return core.Run(nil, core.Spec{Machine: sp, Procs: 16}, btio.Config{Class: btio.Class{Name: "t", N: 16, Dumps: 3}}.Setup)
			},
			func() (core.Report, error) {
				return core.Run(nil, core.Spec{Machine: sp, Procs: 16}, btio.Config{Class: btio.Class{Name: "t", N: 16, Dumps: 3}, Collective: true}.Setup)
			},
		},
		{
			"ast collective",
			func() (core.Report, error) {
				return core.Run(nil, core.Spec{Machine: pl, Procs: 8}, ast.Config{N: 256, Arrays: 2, Dumps: 2}.Setup)
			},
			func() (core.Report, error) {
				return core.Run(nil, core.Spec{Machine: pl, Procs: 8}, ast.Config{N: 256, Arrays: 2, Dumps: 2, Optimized: true}.Setup)
			},
		},
	}
	for _, pr := range pairs {
		base, err := pr.base()
		if err != nil {
			t.Fatalf("%s base: %v", pr.name, err)
		}
		opt, err := pr.opt()
		if err != nil {
			t.Fatalf("%s opt: %v", pr.name, err)
		}
		if opt.ExecSec >= base.ExecSec {
			t.Errorf("%s: optimized exec %g not below base %g", pr.name, opt.ExecSec, base.ExecSec)
		}
	}
}

// TestVolumeConservationAcrossStack checks that bytes recorded at the
// application interface equal bytes arriving at the I/O nodes' disks for a
// write-dominant app (no loss or duplication through pio/pfs/ionode).
func TestVolumeConservationAcrossStack(t *testing.T) {
	sp, _ := machine.SP2()
	cfg := btio.Config{Class: btio.Class{Name: "t", N: 16, Dumps: 3}}
	rep, err := core.Run(nil, core.Spec{Machine: sp, Procs: 4}, cfg.Setup)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace.Get(trace.Write).Bytes != cfg.TotalIOBytes() {
		t.Fatalf("app-level bytes %d != workload %d",
			rep.Trace.Get(trace.Write).Bytes, cfg.TotalIOBytes())
	}
}

// TestMoreIONodesNeverHurtLargeScale: adding I/O nodes must not increase
// execution time for the contention-bound SCF workload.
func TestMoreIONodesNeverHurtLargeScale(t *testing.T) {
	exec := func(nio int) float64 {
		m, err := machine.ParagonLarge(nio)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := core.Run(nil, core.Spec{Machine: m, Procs: 32}, scf.Config11{Input: scf.Input{Name: "t", N: 48}, Version: scf.Passion}.Setup)
		if err != nil {
			t.Fatal(err)
		}
		return rep.ExecSec
	}
	e12, e64 := exec(12), exec(64)
	if e64 > e12*1.02 {
		t.Fatalf("64 I/O nodes slower than 12: %g vs %g", e64, e12)
	}
}
