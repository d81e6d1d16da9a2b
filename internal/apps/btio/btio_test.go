package btio

import (
	"testing"

	"pario/internal/machine"
	"pario/internal/ooc"
	"pario/internal/trace"
)

func sp2(t *testing.T) *machine.Config {
	t.Helper()
	m, err := machine.SP2()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// tinyClass keeps tests fast; mechanisms are scale-free.
var tinyClass = Class{Name: "T", N: 16, Dumps: 3}

func TestRunCompletes(t *testing.T) {
	rep, err := Run(Config{Machine: sp2(t), Procs: 4, Class: tinyClass})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ExecSec <= 0 || rep.IOMaxSec <= 0 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestWriteVolumeMatchesClass(t *testing.T) {
	cfg := Config{Machine: sp2(t), Procs: 4, Class: tinyClass}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BytesWritten != cfg.TotalIOBytes() {
		t.Fatalf("written = %d, want %d", rep.BytesWritten, cfg.TotalIOBytes())
	}
}

func TestCollectiveWritesSameVolume(t *testing.T) {
	// Two-phase writes whole stripe-aligned domains, so it may write
	// padding, but never less than the data.
	cfg := Config{Machine: sp2(t), Procs: 4, Class: tinyClass, Collective: true}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BytesWritten < cfg.TotalIOBytes() {
		t.Fatalf("collective wrote %d, want >= %d", rep.BytesWritten, cfg.TotalIOBytes())
	}
}

func TestUnoptimizedRequestCountGrowsWithSqrtP(t *testing.T) {
	// §4.5: the total number of I/O calls grows with the processor count
	// in the unoptimized version.
	count := func(procs int) int64 {
		rep, err := Run(Config{Machine: sp2(t), Procs: procs, Class: tinyClass})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Trace.Get(trace.Write).Count
	}
	c4, c16 := count(4), count(16)
	if c16 != 2*c4 {
		t.Fatalf("writes: P=16 gives %d, want exactly 2x P=4's %d (n^2*sqrt(P) law)", c16, c4)
	}
}

func TestCollectiveRequestCountIsPPerDump(t *testing.T) {
	rep, err := Run(Config{Machine: sp2(t), Procs: 4, Class: tinyClass, Collective: true})
	if err != nil {
		t.Fatal(err)
	}
	// At most P large requests per dump; stripe-aligned domains can leave
	// trailing ranks empty on small snapshots, never add requests.
	got := rep.Trace.Get(trace.Write).Count
	max := int64(4 * tinyClass.Dumps)
	min := int64(tinyClass.Dumps)
	if got > max || got < min {
		t.Fatalf("collective writes = %d, want in [%d,%d]", got, min, max)
	}
}

func TestCollectiveReducesIOTime(t *testing.T) {
	un, err := Run(Config{Machine: sp2(t), Procs: 16, Class: tinyClass})
	if err != nil {
		t.Fatal(err)
	}
	op, err := Run(Config{Machine: sp2(t), Procs: 16, Class: tinyClass, Collective: true})
	if err != nil {
		t.Fatal(err)
	}
	if op.IOMaxSec >= un.IOMaxSec {
		t.Fatalf("collective I/O %g not below unix-style %g", op.IOMaxSec, un.IOMaxSec)
	}
	if op.ExecSec >= un.ExecSec {
		t.Fatalf("collective exec %g not below unix-style %g", op.ExecSec, un.ExecSec)
	}
}

func TestBandwidthImprovement(t *testing.T) {
	// Figure 7's direction: optimized bandwidth is a large multiple of the
	// original's.
	un, err := Run(Config{Machine: sp2(t), Procs: 16, Class: tinyClass})
	if err != nil {
		t.Fatal(err)
	}
	op, err := Run(Config{Machine: sp2(t), Procs: 16, Class: tinyClass, Collective: true})
	if err != nil {
		t.Fatal(err)
	}
	if op.BandwidthMBs() < 3*un.BandwidthMBs() {
		t.Fatalf("bandwidth: optimized %g vs original %g, want >= 3x",
			op.BandwidthMBs(), un.BandwidthMBs())
	}
}

func TestNonSquareProcsRejected(t *testing.T) {
	if _, err := Run(Config{Machine: sp2(t), Procs: 6, Class: tinyClass}); err == nil {
		t.Fatal("non-square process count accepted")
	}
}

func TestMissingClassRejected(t *testing.T) {
	if _, err := Run(Config{Machine: sp2(t), Procs: 4}); err == nil {
		t.Fatal("missing class accepted")
	}
	if _, err := Run(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestDumpsOverride(t *testing.T) {
	// A class with fewer dumps than the paper's shortens a run: it writes
	// that many dumps' worth and no more.
	full := Config{Machine: sp2(t), Procs: 4, Class: tinyClass}
	short := full
	short.Class.Dumps = 1
	if short.TotalIOBytes() != full.TotalIOBytes()/int64(tinyClass.Dumps) {
		t.Fatalf("one-dump volume = %d, want a %dth of %d", short.TotalIOBytes(), tinyClass.Dumps, full.TotalIOBytes())
	}
	rep, err := Run(short)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BytesWritten != short.TotalIOBytes() {
		t.Fatalf("written = %d, want %d", rep.BytesWritten, short.TotalIOBytes())
	}
}

func TestCellRunsCoverGrid(t *testing.T) {
	// Every grid point is owned exactly once per dump: the union of all
	// processes' cells covers the array with no overlap.
	const q = 4
	const n = 16
	arr, err := ooc.NewArray3D(n, n, n, comp, elemBytes, 0)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for pi := 0; pi < q; pi++ {
		for pj := 0; pj < q; pj++ {
			for k := 0; k < q; k++ {
				total += ooc.TotalBytes(cellRuns(arr, pi, pj, k, q, n))
			}
		}
	}
	if total != arr.SizeBytes() {
		t.Fatalf("cells cover %d bytes, want %d", total, arr.SizeBytes())
	}
}

func TestClassConstants(t *testing.T) {
	// Class A: 40 dumps x 64^3 x 40 B = 419.4 MB (paper: 408.9 MB
	// excluding control records).
	v := Config{Class: ClassA}.TotalIOBytes()
	if v < 400e6 || v < 0 || v > 430e6 {
		t.Fatalf("Class A volume = %d, want ~419 MB", v)
	}
	vb := Config{Class: ClassB}.TotalIOBytes()
	if vb < 1.6e9 || vb > 1.8e9 {
		t.Fatalf("Class B volume = %d, want ~1.7 GB", vb)
	}
}

func TestBoundsPartition(t *testing.T) {
	// Slabs tile [0, n) exactly, even when q does not divide n.
	var covered int64
	for i := 0; i < 3; i++ {
		lo, hi := bounds(i, 3, 64)
		covered += hi - lo
	}
	if covered != 64 {
		t.Fatalf("slabs cover %d of 64", covered)
	}
}

func TestVerifyAddsReadBack(t *testing.T) {
	cfg := Config{Machine: sp2(t), Procs: 4, Class: tinyClass}
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Verify = true
	verified, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.BytesRead != 0 {
		t.Fatalf("non-verify run read %d bytes", plain.BytesRead)
	}
	// Verification reads one snapshot back.
	snap := cfg.TotalIOBytes() / int64(tinyClass.Dumps)
	if verified.BytesRead != snap {
		t.Fatalf("verify read %d bytes, want %d", verified.BytesRead, snap)
	}
	if verified.ExecSec <= plain.ExecSec {
		t.Fatal("verify did not lengthen the run")
	}
}

func TestVerifyCollectiveReads(t *testing.T) {
	cfg := Config{Machine: sp2(t), Procs: 4, Class: tinyClass, Collective: true, Verify: true}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BytesRead == 0 {
		t.Fatal("collective verify read nothing")
	}
	// Collective verify: at most P read requests total.
	if got := rep.Trace.Get(trace.Read).Count; got > 4 {
		t.Fatalf("collective verify reads = %d, want <= 4", got)
	}
}
