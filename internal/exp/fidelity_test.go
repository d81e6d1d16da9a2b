package exp

// Paper-fidelity suite: full-scale runs checked against the headline
// numbers of Kandaswamy, Kandemir, Choudhary & Bernholdt, "Performance
// Implications of Architectural and Software Techniques on I/O-Intensive
// Applications" (ICPP 1998). Where the golden suite pins the simulator
// against itself, this suite pins it against the paper: tolerances are
// deliberately loose (a cost-model reproduction is not cycle-accurate)
// but tight enough that a regression breaking a table's story fails.
//
// Full-scale runs take seconds each, so the whole suite is skipped under
// -short; `go test ./internal/exp` runs it, `go test -short` does not.

import (
	"context"
	"math"
	"testing"

	"pario/internal/core"
	"pario/internal/request"
	"pario/internal/trace"
)

// within asserts got is within frac (relative) of want.
func within(t *testing.T, name string, got, want, frac float64) {
	t.Helper()
	if want == 0 {
		t.Fatalf("%s: zero reference", name)
	}
	if dev := math.Abs(got-want) / math.Abs(want); dev > frac {
		t.Errorf("%s = %.4g, want %.4g ±%.0f%% (off by %.1f%%)",
			name, got, want, 100*frac, 100*dev)
	}
}

// TestFidelityTable2 checks the original SCF 1.1 I/O summary (paper
// Table 2): the read-dominated profile, its volume, and the ~54% I/O
// share that motivates the whole study.
func TestFidelityTable2(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale paper run")
	}
	t.Parallel()
	rep, err := request.Run(context.Background(), scf11(Full, "LARGE", "original", 4, 12))
	if err != nil {
		t.Fatal(err)
	}
	reads := rep.Trace.Get(trace.Read)
	within(t, "read count", float64(reads.Count), 566_000, 0.05)
	within(t, "read seconds (agg)", reads.Sec, 60_284, 0.15)
	within(t, "read volume (GB)", float64(reads.Bytes)/1e9, 37, 0.10)
	within(t, "I/O %% of exec", rep.IOPctOfExec(), 54, 0.10)
	within(t, "I/O hours per process", rep.IOMaxSec/3600, 4.4, 0.15)
}

// TestFidelityTable3 checks the PASSION rewrite (paper Table 3): read
// time down ~45%, write time down ~50%, and the seek-count explosion of
// the explicit-seek interface discipline.
func TestFidelityTable3(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale paper run")
	}
	t.Parallel()
	rep, err := request.Run(context.Background(), scf11(Full, "LARGE", "passion", 4, 12))
	if err != nil {
		t.Fatal(err)
	}
	within(t, "read seconds (agg)", rep.Trace.Get(trace.Read).Sec, 33_805, 0.15)
	within(t, "seek count", float64(rep.Trace.Get(trace.Seek).Count), 604_000, 0.10)
	within(t, "write seconds (agg)", rep.Trace.Get(trace.Write).Sec, 1_381, 0.25)
	within(t, "I/O hours per process", rep.IOMaxSec/3600, 2.5, 0.15)
}

// TestFidelityFig2Crossover checks Figure 2's qualitative story: software
// optimization on a small I/O partition wins at low processor counts, but
// at 256 processors the unoptimized code on a 64-node I/O partition wins —
// architecture has to catch up with software.
func TestFidelityFig2Crossover(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale paper run")
	}
	t.Parallel()
	run := func(v string, p, nio int) core.Report {
		t.Helper()
		rep, err := request.Run(context.Background(), scf11(Full, "LARGE", v, p, nio))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	unopt4 := run("original", 4, 64)
	opt4 := run("prefetch", 4, 16)
	if opt4.ExecSec >= unopt4.ExecSec {
		t.Errorf("at 4 procs optimized/16io should win: opt %.0fs vs unopt %.0fs",
			opt4.ExecSec, unopt4.ExecSec)
	}
	unopt256 := run("original", 256, 64)
	opt256 := run("prefetch", 256, 16)
	if unopt256.ExecSec >= opt256.ExecSec {
		t.Errorf("at 256 procs unoptimized/64io should win: unopt %.0fs vs opt %.0fs",
			unopt256.ExecSec, opt256.ExecSec)
	}
}

// TestFidelityFig7Bandwidth checks Figure 7's headline: original BTIO
// crawls at single-digit MB/s while two-phase collective I/O delivers an
// order-of-magnitude more (paper: 0.97-1.5 vs 6.6-31.4 MB/s across
// classes; Class A on our SP-2 model sits in the same regimes).
func TestFidelityFig7Bandwidth(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale paper run")
	}
	t.Parallel()
	// The small and large ends of the paper's processor range; 36 adds
	// ~20s of simulation without changing the story.
	for _, p := range []int{16, 64} {
		var bw [2]float64
		for i, collective := range []bool{false, true} {
			rep, err := request.Run(context.Background(), btio(Full, "A", p, collective))
			if err != nil {
				t.Fatal(err)
			}
			bw[i] = rep.BandwidthMBs()
		}
		orig, opt := bw[0], bw[1]
		if orig < 0.9 || orig > 4.0 {
			t.Errorf("p=%d: original bandwidth %.2f MB/s outside the paper's regime [0.9, 4.0]", p, orig)
		}
		if opt < 20 || opt > 40 {
			t.Errorf("p=%d: collective bandwidth %.2f MB/s outside the paper's regime [20, 40]", p, opt)
		}
		if opt < 8*orig {
			t.Errorf("p=%d: collective I/O should win by an order of magnitude: %.2f vs %.2f MB/s",
				p, opt, orig)
		}
	}
}
