package roofline

import (
	"math"
	"testing"

	"pario/internal/apps/scf"
	"pario/internal/machine"
)

func paragonModel(t *testing.T) *Model {
	t.Helper()
	cfg, err := machine.ParagonLarge(16)
	if err != nil {
		t.Fatal(err)
	}
	return NewModel(cfg)
}

// TestModelEstimateGuards pins Model.Estimate's own validation, which tests
// hit directly when probing scaling with a hand-built model.
func TestModelEstimateGuards(t *testing.T) {
	m := paragonModel(t)
	if _, err := m.Estimate(Input{App: "scf11", Procs: 0, Input: scf.Small}); err == nil {
		t.Fatal("procs=0 accepted")
	}
	if _, err := m.Estimate(Input{App: "nope", Procs: 4}); err == nil {
		t.Fatal("unknown app accepted")
	}
}

// TestClassifyOrder pins the deterministic tie-break: disk_bw wins ties,
// then strict dominance flips to each other ceiling.
func TestClassifyOrder(t *testing.T) {
	cases := []struct {
		overhead, seek, disk, link float64
		want                       Bottleneck
	}{
		{0, 0, 0, 0, DiskBWBound}, // all-zero tie: disk_bw by order
		{1, 1, 1, 1, DiskBWBound},
		{0, 2, 1, 0, SeekBound},
		{3, 2, 1, 0, OverheadBound},
		{3, 2, 1, 4, LinkBWBound},
		{0, 0, 5, 4, DiskBWBound},
	}
	for _, tc := range cases {
		if got := classify(tc.overhead, tc.seek, tc.disk, tc.link); got != tc.want {
			t.Errorf("classify(%v,%v,%v,%v) = %s, want %s",
				tc.overhead, tc.seek, tc.disk, tc.link, got, tc.want)
		}
	}
}

// TestPhaseAttribution drives the combiner through each winning ceiling on
// a hand-built rate sheet, including the no-write-behind chain.
func TestPhaseAttribution(t *testing.T) {
	m := &Model{
		Machine: "test", IONodes: 1, Spindles: 1, CPUFlops: 1e8,
		DiskSecPerByte: 1e-7, DiskReqSec: 5e-3, DiskSeqReqSec: 1e-3,
		ServerSec: 1e-3, CacheCopySecPerByte: 1e-8, WriteBehind: true,
		LinkSecPerByte: 1e-8, LinkLatencySec: 1e-4, MemCopySecPerByte: 1e-8,
		StripeUnit: 64 << 10,
	}

	// Chain-bound: huge per-call software, negligible bytes.
	ch := m.phase("chain", load{calls: 1000, callSec: 0.1, bytesPerRank: 1 << 10, ranks: 1, diskReqs: 1})
	if ch.Bound != OverheadBound || ch.OverheadSec <= 0 {
		t.Fatalf("chain-bound phase classified %s (overhead %.3f)", ch.Bound, ch.OverheadSec)
	}

	// Disk-aggregate-bound: many ranks stream through one spindle.
	da := m.phase("diskagg", load{calls: 1, callSec: 1e-5, bytesPerRank: 64 << 20, ranks: 64, diskReqs: 64, nicBytes: 1})
	if da.Bound != DiskBWBound || da.DiskSec <= 0 {
		t.Fatalf("disk-bound phase classified %s (disk %.3f)", da.Bound, da.DiskSec)
	}

	// Link-bound: one NIC carries everything, disks are plentiful.
	m2 := *m
	m2.Spindles = 10000
	la := m2.phase("linkagg", load{calls: 1, callSec: 1e-6, bytesPerRank: 1 << 20, ranks: 64, nicBytes: 64 << 30})
	if la.Bound != LinkBWBound || la.LinkSec <= 0 {
		t.Fatalf("link-bound phase classified %s (link %.3f)", la.Bound, la.LinkSec)
	}

	// Writes without a cache wait on the disk in the chain.
	m3 := *m
	m3.WriteBehind = false
	wb := m3.phase("rawwrite", load{calls: 10, callSec: 1e-3, bytesPerRank: 1 << 20, ranks: 1, diskReqs: 16, write: true})
	if wb.SeekSec <= 0 {
		t.Fatalf("uncached write chain has no seek attribution: %+v", wb)
	}

	// Overlapped phases hide compute behind the chain.
	ov := m.phase("overlap", load{calls: 10, callSec: 1e-3, bytesPerRank: 1 << 20, ranks: 1, diskReqs: 16, overlap: true, computeSec: 100})
	if math.Abs(ov.ElapsedSec-(100+float64(1<<20)*m.MemCopySecPerByte)) > 1e-9 {
		t.Fatalf("overlapped phase elapsed %.6f, want compute + copy", ov.ElapsedSec)
	}
}

// TestHelperEdgeCases covers the small analytic helpers' boundary behavior.
func TestHelperEdgeCases(t *testing.T) {
	m := paragonModel(t)
	if got := m.alltoallvSec(1, 1024); got != 0 {
		t.Errorf("alltoallv with one rank = %v, want 0", got)
	}
	if got := m.diskRequests(0, 1024); got != 0 {
		t.Errorf("diskRequests(0 bytes) = %v, want 0", got)
	}
	if got := m.diskRequests(1024, 0); got != 0 {
		t.Errorf("diskRequests(0 run) = %v, want 0", got)
	}
	for n, want := range map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 1024: 10} {
		if got := ceilLog2(n); got != want {
			t.Errorf("ceilLog2(%d) = %d, want %d", n, got, want)
		}
	}
	if m.Interface("passion").WriteCallSec >= m.Interface("").WriteCallSec {
		t.Error("PASSION write call should be cheaper than the Fortran default")
	}
}
