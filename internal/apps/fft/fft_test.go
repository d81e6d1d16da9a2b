package fft

import (
	"reflect"
	"sync"
	"testing"

	"pario/internal/core"
	"pario/internal/machine"
	"pario/internal/trace"
)

func paragonSmall(t *testing.T, nio int) *machine.Config {
	t.Helper()
	m, err := machine.ParagonSmall(nio)
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

// testCfg is a reduced problem (256x256, 256 KB buffers) so tests run
// quickly; the layout effect is scale-free.
func testCfg(t *testing.T, procs, nio int, opt bool) testRun {
	return testRun{
		spec:   core.Spec{Machine: paragonSmall(t, nio), Procs: procs},
		Config: Config{N: 256, OptimizedLayout: opt, BufferBytes: 256 << 10},
	}
}

func TestRunCompletes(t *testing.T) {
	rep, err := run(testCfg(t, 4, 2, false))
	if err != nil {
		t.Fatal(err)
	}
	if rep.ExecSec <= 0 || rep.IOMaxSec <= 0 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestIOVolumeIsSixPasses(t *testing.T) {
	rep, err := run(testCfg(t, 2, 2, false))
	if err != nil {
		t.Fatal(err)
	}
	want := TotalIOBytes(256)
	got := rep.BytesRead + rep.BytesWritten
	if got != want {
		t.Fatalf("I/O volume = %d, want %d (6 passes)", got, want)
	}
	// Reads and writes are symmetric (3 read passes, 3 write passes).
	if rep.BytesRead != rep.BytesWritten {
		t.Fatalf("read %d != written %d", rep.BytesRead, rep.BytesWritten)
	}
}

func TestLayoutOptimizationReducesRequests(t *testing.T) {
	un, err := run(testCfg(t, 2, 2, false))
	if err != nil {
		t.Fatal(err)
	}
	op, err := run(testCfg(t, 2, 2, true))
	if err != nil {
		t.Fatal(err)
	}
	unOps := un.Trace.Get(trace.Read).Count + un.Trace.Get(trace.Write).Count
	opOps := op.Trace.Get(trace.Read).Count + op.Trace.Get(trace.Write).Count
	if opOps*4 > unOps {
		t.Fatalf("optimized ops = %d vs unoptimized %d: shattering missing", opOps, unOps)
	}
}

func TestLayoutOptimizationReducesIOTime(t *testing.T) {
	un, err := run(testCfg(t, 2, 2, false))
	if err != nil {
		t.Fatal(err)
	}
	op, err := run(testCfg(t, 2, 2, true))
	if err != nil {
		t.Fatal(err)
	}
	if op.IOMaxSec*2 > un.IOMaxSec {
		t.Fatalf("optimized I/O %g not well below unoptimized %g", op.IOMaxSec, un.IOMaxSec)
	}
	if op.ExecSec >= un.ExecSec {
		t.Fatalf("optimized exec %g not below unoptimized %g", op.ExecSec, un.ExecSec)
	}
}

func TestOptimized2IOBeatsUnoptimized4IO(t *testing.T) {
	// The paper's headline for FFT (§4.4, Figure 5): the layout-optimized
	// program on 2 I/O nodes beats the unoptimized one on 4 I/O nodes for
	// all processor counts.
	for _, procs := range []int{1, 2, 4, 8} {
		op2, err := run(testCfg(t, procs, 2, true))
		if err != nil {
			t.Fatal(err)
		}
		un4, err := run(testCfg(t, procs, 4, false))
		if err != nil {
			t.Fatal(err)
		}
		if op2.ExecSec >= un4.ExecSec {
			t.Fatalf("procs=%d: optimized/2io exec %g not below unoptimized/4io %g",
				procs, op2.ExecSec, un4.ExecSec)
		}
	}
}

func TestIODominatesExecution(t *testing.T) {
	// Paper §4.4: I/O is 90-95% of FFT execution time (unoptimized).
	rep, err := run(testCfg(t, 4, 2, false))
	if err != nil {
		t.Fatal(err)
	}
	if pct := rep.IOPctOfExec(); pct < 80 {
		t.Fatalf("I/O = %g%% of exec, want >= 80%%", pct)
	}
}

func TestUnoptimizedIOTimeGrowsWithProcs(t *testing.T) {
	// Figure 5(a): on 2 I/O nodes the unoptimized I/O time rises beyond a
	// small processor count instead of scaling down.
	few, err := run(testCfg(t, 2, 2, false))
	if err != nil {
		t.Fatal(err)
	}
	many, err := run(testCfg(t, 16, 2, false))
	if err != nil {
		t.Fatal(err)
	}
	if many.IOMaxSec < few.IOMaxSec/2 {
		t.Fatalf("I/O time fell from %g to %g going 2->16 procs; contention missing",
			few.IOMaxSec, many.IOMaxSec)
	}
}

func TestValidation(t *testing.T) {
	if _, err := run(testRun{}); err == nil {
		t.Fatal("empty config accepted")
	}
	cfg := testCfg(t, 2, 2, false)
	cfg.BufferBytes = 1024 // cannot hold one column
	if _, err := run(cfg); err == nil {
		t.Fatal("tiny buffer accepted")
	}
	cfg = testCfg(t, 2, 2, false)
	cfg.N = 1
	if _, err := run(cfg); err == nil {
		t.Fatal("N < procs accepted")
	}
}

func TestDefaultN(t *testing.T) {
	var cfg Config
	if err := cfg.defaults(1); err != nil {
		t.Fatal(err)
	}
	if cfg.N != 4096 || cfg.BufferBytes != 8<<20 {
		t.Fatalf("defaults = N %d buf %d", cfg.N, cfg.BufferBytes)
	}
	// 4096 gives the paper's 1.5 GB total I/O.
	if v := TotalIOBytes(4096); v < 1400<<20 || v > 1700<<20 {
		t.Fatalf("default I/O volume = %d, want ~1.5 GB", v)
	}
}

// TestCaptureIsPerRun runs a capturing and a non-capturing FFT at once:
// capture is a choice of one run's Spec, so the first returns exactly the
// per-rank logs of a capturing run made alone and the second captures
// nothing.
func TestCaptureIsPerRun(t *testing.T) {
	capturing := testCfg(t, 4, 2, false)
	capturing.spec.Capture = true
	alone, err := run(capturing)
	if err != nil {
		t.Fatal(err)
	}
	if len(alone.Captured) != 4 || len(alone.Captured[0]) == 0 {
		t.Fatalf("capturing run captured %d ranks", len(alone.Captured))
	}
	var wg sync.WaitGroup
	var with, without core.Report
	var errWith, errWithout error
	wg.Add(2)
	go func() { defer wg.Done(); with, errWith = run(capturing) }()
	go func() { defer wg.Done(); without, errWithout = run(testCfg(t, 4, 2, false)) }()
	wg.Wait()
	if errWith != nil || errWithout != nil {
		t.Fatal(errWith, errWithout)
	}
	if !reflect.DeepEqual(with.Captured, alone.Captured) {
		t.Fatal("concurrent capturing run's logs differ from the run made alone")
	}
	if without.Captured != nil {
		t.Fatalf("non-capturing run captured %d ranks", len(without.Captured))
	}
	if without.ExecSec != with.ExecSec {
		t.Fatalf("capture changed the simulation: exec %g vs %g", without.ExecSec, with.ExecSec)
	}
}
