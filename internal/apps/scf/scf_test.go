package scf

import (
	"testing"

	"pario/internal/core"
	"pario/internal/machine"
	"pario/internal/trace"
)

// tiny is a reduced input so tests run in milliseconds; calibration
// constants are size-independent.
var tiny = Input{Name: "TINY", N: 32}

func paragon(t *testing.T, nio int) *machine.Config {
	t.Helper()
	m, err := machine.ParagonLarge(nio)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// run11 and run30 run cfg on procs ranks of the large Paragon with nio
// I/O nodes.
func run11(t *testing.T, nio, procs int, cfg Config11) (core.Report, error) {
	return core.Run(nil, core.Spec{Machine: paragon(t, nio), Procs: procs}, cfg.Setup)
}

func run30(t *testing.T, nio, procs int, cfg Config30) (core.Report, error) {
	return core.Run(nil, core.Spec{Machine: paragon(t, nio), Procs: procs}, cfg.Setup)
}

func TestRun11Completes(t *testing.T) {
	rep, err := run11(t, 12, 4, Config11{Input: tiny, Version: Original})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ExecSec <= 0 || rep.IOMaxSec <= 0 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.IOMaxSec > rep.ExecSec {
		t.Fatal("I/O time exceeds execution time")
	}
}

func TestRun11ReadVolumeIsIterationsTimesFile(t *testing.T) {
	rep, err := run11(t, 12, 2, Config11{Input: tiny, Version: Original})
	if err != nil {
		t.Fatal(err)
	}
	stored := StoredBytes(tiny)
	perProc := stored / 2 * 2 // rounding per proc
	want := int64(readIterations) * perProc
	got := rep.BytesRead
	if got < want*95/100 || got > want*105/100 {
		t.Fatalf("read volume = %d, want ~%d", got, want)
	}
}

func TestRun11InterfaceOrdering(t *testing.T) {
	// Paper §4.2: original > PASSION > PASSION+prefetch in both I/O and
	// execution time.
	run := func(v Version) (float64, float64) {
		rep, err := run11(t, 12, 4, Config11{Input: tiny, Version: v})
		if err != nil {
			t.Fatal(err)
		}
		return rep.ExecSec, rep.IOMaxSec
	}
	oExec, oIO := run(Original)
	pExec, pIO := run(Passion)
	fExec, fIO := run(PassionPrefetch)
	if !(pIO < oIO) {
		t.Fatalf("PASSION I/O %g not below original %g", pIO, oIO)
	}
	if !(fIO < pIO) {
		t.Fatalf("prefetch I/O %g not below PASSION %g", fIO, pIO)
	}
	if !(pExec < oExec && fExec < pExec) {
		t.Fatalf("exec ordering violated: %g, %g, %g", oExec, pExec, fExec)
	}
}

func TestRun11SeekDisciplines(t *testing.T) {
	// Table 2 vs Table 3: the original has few seeks; PASSION has about
	// one per data call.
	orig, err := run11(t, 12, 2, Config11{Input: tiny, Version: Original})
	if err != nil {
		t.Fatal(err)
	}
	pass, err := run11(t, 12, 2, Config11{Input: tiny, Version: Passion})
	if err != nil {
		t.Fatal(err)
	}
	oSeeks := orig.Trace.Get(trace.Seek).Count
	pSeeks := pass.Trace.Get(trace.Seek).Count
	pData := pass.Trace.Get(trace.Read).Count + pass.Trace.Get(trace.Write).Count
	if pSeeks < pData {
		t.Fatalf("PASSION seeks = %d, want >= data calls %d", pSeeks, pData)
	}
	// At full scale the ratio is ~600x (Table 2 vs 3); at this test's tiny
	// input the rewind seeks weigh more, so just require a clear multiple.
	if oSeeks*3 > pSeeks {
		t.Fatalf("original seeks = %d vs PASSION %d: explosion missing", oSeeks, pSeeks)
	}
}

func TestRun11MetadataCountsMatchTable2(t *testing.T) {
	// The aux-file model is fitted to reproduce Table 2 exactly at 4
	// processes: 19 opens, 14 closes, 49 flushes.
	rep, err := run11(t, 12, 4, Config11{Input: tiny, Version: Original})
	if err != nil {
		t.Fatal(err)
	}
	if n := rep.Trace.Get(trace.Open).Count; n != 19 {
		t.Fatalf("opens = %d, want 19", n)
	}
	if n := rep.Trace.Get(trace.Close).Count; n != 14 {
		t.Fatalf("closes = %d, want 14", n)
	}
	if n := rep.Trace.Get(trace.Flush).Count; n != 49 {
		t.Fatalf("flushes = %d, want 49", n)
	}
}

func TestRun11LargerMemoryFewerReads(t *testing.T) {
	small, err := run11(t, 12, 2, Config11{Input: tiny, Version: Passion, MemoryKB: 64})
	if err != nil {
		t.Fatal(err)
	}
	big, err := run11(t, 12, 2, Config11{Input: tiny, Version: Passion, MemoryKB: 256})
	if err != nil {
		t.Fatal(err)
	}
	if big.Trace.Get(trace.Read).Count >= small.Trace.Get(trace.Read).Count {
		t.Fatalf("reads with 256K = %d, not below 64K = %d",
			big.Trace.Get(trace.Read).Count, small.Trace.Get(trace.Read).Count)
	}
	if big.IOMaxSec >= small.IOMaxSec {
		t.Fatalf("larger buffers did not reduce I/O time: %g vs %g", big.IOMaxSec, small.IOMaxSec)
	}
}

func TestRun11BadConfig(t *testing.T) {
	if _, err := run11(t, 12, 1, Config11{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := run11(t, 12, 0, Config11{Input: tiny}); err == nil {
		t.Fatal("zero procs accepted")
	}
}

func TestStoredBytesMatchesPaperLarge(t *testing.T) {
	// Table 2: LARGE writes a 2.5 GB integral file.
	got := StoredBytes(Large)
	if got < 2.3e9 || got > 2.7e9 {
		t.Fatalf("LARGE stored bytes = %d, want ~2.5e9", got)
	}
}

func TestRun30RecomputeVsCached(t *testing.T) {
	// Paper Figure 4: at 0%% cached, more processors help a lot; at 100%%
	// cached, much less.
	run := func(procs, cached int) float64 {
		rep, err := run30(t, 16, procs, Config30{Input: tiny, CachedPct: cached, Balance: true})
		if err != nil {
			t.Fatal(err)
		}
		return rep.ExecSec
	}
	gain0 := run(2, 0) / run(8, 0)
	gain100 := run(2, 100) / run(8, 100)
	if gain0 < 2 {
		t.Fatalf("0%% cached speedup 2->8 procs = %g, want > 2", gain0)
	}
	if gain100 >= gain0 {
		t.Fatalf("100%% cached speedup %g not below 0%% cached %g", gain100, gain0)
	}
}

func TestRun30CachedReducesExec(t *testing.T) {
	// On the Paragon the paper found caching more integrals preferable to
	// adding processors (§4.3).
	lo, err := run30(t, 16, 4, Config30{Input: tiny, CachedPct: 0, Balance: true})
	if err != nil {
		t.Fatal(err)
	}
	hi, err := run30(t, 16, 4, Config30{Input: tiny, CachedPct: 100, Balance: true})
	if err != nil {
		t.Fatal(err)
	}
	if hi.ExecSec >= lo.ExecSec {
		t.Fatalf("100%% cached exec %g not below 0%% cached %g", hi.ExecSec, lo.ExecSec)
	}
}

func TestRun30BalanceHelps(t *testing.T) {
	bal, err := run30(t, 16, 8, Config30{Input: tiny, CachedPct: 100, Balance: true})
	if err != nil {
		t.Fatal(err)
	}
	unbal, err := run30(t, 16, 8, Config30{Input: tiny, CachedPct: 100, Balance: false})
	if err != nil {
		t.Fatal(err)
	}
	if bal.ExecSec >= unbal.ExecSec {
		t.Fatalf("balanced exec %g not below unbalanced %g", bal.ExecSec, unbal.ExecSec)
	}
}

func TestRun30ZeroCachedDoesNoDataIO(t *testing.T) {
	rep, err := run30(t, 16, 2, Config30{Input: tiny, CachedPct: 0, Balance: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BytesRead != 0 || rep.BytesWritten != 0 {
		t.Fatalf("0%% cached moved data: %d read / %d written", rep.BytesRead, rep.BytesWritten)
	}
}

func TestRun30Validation(t *testing.T) {
	if _, err := run30(t, 16, 2, Config30{Input: tiny, CachedPct: 101}); err == nil {
		t.Fatal("cached > 100 accepted")
	}
	if _, err := run30(t, 16, 1, Config30{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestBalancedDeltas(t *testing.T) {
	sizes := []int64{100, 200, 300, 400} // mean 250
	// Rank 3 has surplus 150 over two deficit ranks (0, 1): 75 each.
	d := balancedDeltas(sizes, 3)
	if d[0] != 75 || d[1] != 75 || d[2] != 0 || d[3] != 0 {
		t.Fatalf("deltas = %v", d)
	}
	// Deficit rank ships nothing.
	d0 := balancedDeltas(sizes, 0)
	for _, v := range d0 {
		if v != 0 {
			t.Fatalf("deficit rank ships %v", d0)
		}
	}
}

func TestVersionString(t *testing.T) {
	if Original.String() != "original" || Passion.String() != "passion" ||
		PassionPrefetch.String() != "passion+prefetch" {
		t.Fatal("Version.String mismatch")
	}
}
