package core

import (
	"testing"

	"pario/internal/machine"
	"pario/internal/sim"
	"pario/internal/trace"
)

func sp2(t *testing.T) *machine.Config {
	t.Helper()
	cfg, err := machine.SP2()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func sp2System(t *testing.T, procs int) *System {
	t.Helper()
	s, err := NewSystem(sp2(t), procs)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// runSP2 runs setup's body on procs ranks of an SP-2 through Run.
func runSP2(t *testing.T, procs int, setup func(s *System) (Body, error)) Report {
	t.Helper()
	rep, err := Run(nil, Spec{Machine: sp2(t), Procs: procs}, setup)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// only is the setup of a run that creates no files.
func only(body func(s *System, p *sim.Proc, rank int)) func(s *System) (Body, error) {
	return func(s *System) (Body, error) {
		return func(p *sim.Proc, rank int) { body(s, p, rank) }, nil
	}
}

// writer is the setup of a run whose ranks write through the Unix client
// to one file "x" of size bytes: rank r writes the blocks blocks(r) of
// block bytes each.
func writer(size, block int64, blocks func(rank int) []int64) func(s *System) (Body, error) {
	return func(s *System) (Body, error) {
		f, err := s.FS.Create("x", s.DefaultLayout(), size)
		if err != nil {
			return nil, err
		}
		return func(p *sim.Proc, rank int) {
			h := s.Client(rank, s.Cfg.Unix).Open(p, f)
			for _, b := range blocks(rank) {
				h.WriteAt(p, b*block, block)
			}
			h.Close(p)
		}, nil
	}
}

func TestNewSystemWiresEverything(t *testing.T) {
	s := sp2System(t, 4)
	if s.FS.NumIONodes() != 4 {
		t.Fatalf("io nodes = %d", s.FS.NumIONodes())
	}
	if s.Comm.Size() != 4 {
		t.Fatalf("comm size = %d", s.Comm.Size())
	}
	if len(s.Recorders) != 4 {
		t.Fatalf("recorders = %d", len(s.Recorders))
	}
}

func TestProcsBounds(t *testing.T) {
	cfg := sp2(t)
	if _, err := NewSystem(cfg, 0); err == nil {
		t.Fatal("0 procs accepted")
	}
	if _, err := NewSystem(cfg, cfg.NumCompute+1); err == nil {
		t.Fatal("too many procs accepted")
	}
	if _, err := Run(nil, Spec{Procs: 1}, only(func(*System, *sim.Proc, int) {})); err == nil {
		t.Fatal("spec without a machine accepted")
	}
}

func TestRunRanksWallIsSlowestRank(t *testing.T) {
	rep := runSP2(t, 4, only(func(_ *System, p *sim.Proc, rank int) {
		p.Delay(float64(rank + 1))
	}))
	if rep.ExecSec != 4 {
		t.Fatalf("wall = %g, want 4", rep.ExecSec)
	}
}

func TestComputeUsesCPURate(t *testing.T) {
	rep := runSP2(t, 1, only(func(s *System, p *sim.Proc, rank int) {
		s.Compute(p, 100e6) // 100 MFlop at 100 MFlops = 1 s
	}))
	if rep.ExecSec < 0.99 || rep.ExecSec > 1.01 {
		t.Fatalf("wall = %g, want ~1", rep.ExecSec)
	}
}

func TestComputeZeroIsFree(t *testing.T) {
	rep := runSP2(t, 1, only(func(s *System, p *sim.Proc, rank int) {
		s.Compute(p, 0)
		s.Compute(p, -5)
	}))
	if rep.ExecSec != 0 {
		t.Fatalf("wall = %g, want 0", rep.ExecSec)
	}
}

func TestReportAggregation(t *testing.T) {
	rep := runSP2(t, 3, writer(1<<20, 65536, func(rank int) []int64 { return []int64{int64(rank)} }))
	if rep.Procs != 3 || rep.IONodes != 4 {
		t.Fatalf("report identity = %+v", rep)
	}
	if rep.BytesWritten != 3*65536 {
		t.Fatalf("bytes written = %d", rep.BytesWritten)
	}
	if rep.Trace.Get(trace.Write).Count != 3 {
		t.Fatalf("aggregated writes = %d", rep.Trace.Get(trace.Write).Count)
	}
	if rep.IOAggSec < rep.IOMaxSec {
		t.Fatal("aggregate I/O below per-rank max")
	}
	if rep.ExecSec <= 0 {
		t.Fatal("exec time not positive")
	}
	if rep.BandwidthMBs() <= 0 {
		t.Fatal("bandwidth not positive")
	}
	if pct := rep.IOPctOfExec(); pct <= 0 || pct > 100.0001 {
		t.Fatalf("I/O%% of exec = %g", pct)
	}
	if rep.Captured != nil {
		t.Fatal("a run without Spec.Capture captured operations")
	}
}

func TestBandwidthZeroWhenNoIO(t *testing.T) {
	var r Report
	if r.BandwidthMBs() != 0 || r.IOPctOfExec() != 0 {
		t.Fatal("zero report not handled")
	}
}

func TestDefaultLayoutSpansAllIONodes(t *testing.T) {
	s := sp2System(t, 2)
	l := s.DefaultLayout()
	if l.StripeFactor != 4 || l.StripeUnit != 32<<10 {
		t.Fatalf("layout = %+v", l)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() float64 {
		return runSP2(t, 8, writer(8<<20, 65536, func(rank int) []int64 {
			return []int64{int64(rank * 4), int64(rank*4 + 1), int64(rank*4 + 2), int64(rank*4 + 3)}
		})).ExecSec
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("runs differ: %g vs %g", a, b)
	}
}

func TestPerRankIOAndImbalance(t *testing.T) {
	// Rank 3 does 4x the I/O of rank 0.
	rep := runSP2(t, 4, writer(1<<20, 65536, func(rank int) []int64 {
		var b []int64
		for i := 0; i <= rank; i++ {
			b = append(b, int64(rank*4+i))
		}
		return b
	}))
	if len(rep.PerRankIOSec) != 4 {
		t.Fatalf("per-rank entries = %d", len(rep.PerRankIOSec))
	}
	if rep.PerRankIOSec[3] <= rep.PerRankIOSec[0] {
		t.Fatal("rank 3 not slower than rank 0")
	}
	if im := rep.IOImbalance(); im <= 1.0 {
		t.Fatalf("imbalance = %g, want > 1", im)
	}
}

func TestIOImbalanceZeroWithoutIO(t *testing.T) {
	var r Report
	if r.IOImbalance() != 0 {
		t.Fatal("empty report imbalance != 0")
	}
}

func TestIONodeBusyReported(t *testing.T) {
	rep := runSP2(t, 2, writer(1<<20, 1<<19, func(rank int) []int64 { return []int64{int64(rank)} }))
	if len(rep.IONodeBusySec) != 4 {
		t.Fatalf("busy entries = %d", len(rep.IONodeBusySec))
	}
	var total float64
	for _, b := range rep.IONodeBusySec {
		total += b
	}
	if total <= 0 {
		t.Fatal("no disk busy time recorded")
	}
	// SP-2 nodes have 4 drives and drains may outlast the ranks, so the
	// ratio can exceed 1 but stays bounded by the drive count plus slack.
	if u := rep.MaxIONodeUtil(); u <= 0 || u > 8 {
		t.Fatalf("max util = %g", u)
	}
}
