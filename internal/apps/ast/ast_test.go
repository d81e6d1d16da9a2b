package ast

import (
	"testing"

	"pario/internal/core"
	"pario/internal/machine"
	"pario/internal/trace"
)

func paragon(t *testing.T, nio int) *machine.Config {
	t.Helper()
	m, err := machine.ParagonLarge(nio)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// testRun is one test run: the spec it runs under and the app config.
type testRun struct {
	spec core.Spec
	Config
}

func run(r testRun) (core.Report, error) { return core.Run(nil, r.spec, r.Config.Setup) }

// testCfg is a reduced problem (256x256, 2 arrays, 2 dumps) for fast tests.
func testCfg(t *testing.T, procs, nio int, opt bool) testRun {
	return testRun{
		spec:   core.Spec{Machine: paragon(t, nio), Procs: procs},
		Config: Config{N: 256, Arrays: 2, Dumps: 2, Optimized: opt},
	}
}

func TestRunCompletes(t *testing.T) {
	rep, err := run(testCfg(t, 4, 16, false))
	if err != nil {
		t.Fatal(err)
	}
	if rep.ExecSec <= 0 || rep.IOMaxSec <= 0 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestWriteVolume(t *testing.T) {
	cfg := testCfg(t, 4, 16, false)
	rep, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BytesWritten != cfg.TotalIOBytes() {
		t.Fatalf("written = %d, want %d", rep.BytesWritten, cfg.TotalIOBytes())
	}
}

func TestOptimizedMuchFaster(t *testing.T) {
	// Table 4's direction: two-phase beats the funnel by a large factor.
	un, err := run(testCfg(t, 8, 16, false))
	if err != nil {
		t.Fatal(err)
	}
	op, err := run(testCfg(t, 8, 16, true))
	if err != nil {
		t.Fatal(err)
	}
	if op.ExecSec*2 > un.ExecSec {
		t.Fatalf("optimized exec %g not well below unoptimized %g", op.ExecSec, un.ExecSec)
	}
}

func TestUnoptimizedExecDecreasesWithProcs(t *testing.T) {
	// Table 4 unoptimized column: 2557 -> 1203 -> 638 going 16 -> 32 -> 64
	// processes (the per-process packing work parallelizes).
	few, err := run(testCfg(t, 2, 16, false))
	if err != nil {
		t.Fatal(err)
	}
	many, err := run(testCfg(t, 8, 16, false))
	if err != nil {
		t.Fatal(err)
	}
	if many.ExecSec >= few.ExecSec {
		t.Fatalf("exec did not fall with procs: %g -> %g", few.ExecSec, many.ExecSec)
	}
}

func TestExtraIONodesMarginal(t *testing.T) {
	// Table 4: 64 I/O nodes improve only marginally over 16 — the
	// bottleneck is the access pattern, not the I/O partition.
	io16, err := run(testCfg(t, 8, 16, false))
	if err != nil {
		t.Fatal(err)
	}
	io64, err := run(testCfg(t, 8, 64, false))
	if err != nil {
		t.Fatal(err)
	}
	// Within 25% of each other.
	ratio := io16.ExecSec / io64.ExecSec
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("16io/64io exec ratio = %g, want ~1 (marginal effect)", ratio)
	}
}

func TestFunnelConcentratesWritesAtRankZero(t *testing.T) {
	cfg := testCfg(t, 4, 16, false)
	rep, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// In the funnel version all file traffic is written by rank 0, in
	// chameleonChunk-sized requests; run volume/chunk gives the count.
	fileWrites := cfg.TotalIOBytes() / chameleonChunk
	if got := rep.Trace.Get(trace.Write).Count; got < fileWrites {
		t.Fatalf("write ops = %d, want >= %d small chunks", got, fileWrites)
	}
}

func TestOptimizedFewRequests(t *testing.T) {
	cfg := testCfg(t, 4, 16, true)
	rep, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Two-phase: at most P requests per dump.
	max := int64(cfg.spec.Procs * cfg.Dumps)
	if got := rep.Trace.Get(trace.Write).Count; got > max {
		t.Fatalf("optimized write ops = %d, want <= %d", got, max)
	}
}

func TestValidation(t *testing.T) {
	if _, err := run(testRun{}); err == nil {
		t.Fatal("empty config accepted")
	}
	cfg := testCfg(t, 4, 16, false)
	cfg.N = 2
	if _, err := run(cfg); err == nil {
		t.Fatal("N < procs accepted")
	}
}

func TestDefaults(t *testing.T) {
	var cfg Config
	cfg.defaults()
	if cfg.N != 2048 || cfg.Arrays != 5 || cfg.Dumps != 12 {
		t.Fatalf("defaults = %+v", cfg)
	}
}

func TestRestartAddsReads(t *testing.T) {
	base := testCfg(t, 4, 16, false)
	noRestart, err := run(base)
	if err != nil {
		t.Fatal(err)
	}
	base.Restart = true
	withRestart, err := run(base)
	if err != nil {
		t.Fatal(err)
	}
	if noRestart.BytesRead != 0 {
		t.Fatalf("non-restart run read %d bytes", noRestart.BytesRead)
	}
	// One snapshot's worth of data is read back on restart.
	snap := base.TotalIOBytes() / int64(base.Dumps)
	if withRestart.BytesRead != snap {
		t.Fatalf("restart read %d bytes, want %d", withRestart.BytesRead, snap)
	}
	if withRestart.ExecSec <= noRestart.ExecSec {
		t.Fatal("restart did not lengthen the run")
	}
}

func TestRestartOptimizedUsesCollectiveRead(t *testing.T) {
	cfg := testCfg(t, 4, 16, true)
	cfg.Restart = true
	rep, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Collective restart: at most P large read requests.
	if got := rep.Trace.Get(trace.Read).Count; got > int64(cfg.spec.Procs) {
		t.Fatalf("collective restart reads = %d, want <= %d", got, cfg.spec.Procs)
	}
}
