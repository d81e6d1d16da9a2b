package pfs

import (
	"testing"
	"testing/quick"

	"pario/internal/disk"
	"pario/internal/ionode"
	"pario/internal/network"
	"pario/internal/sim"
	"pario/internal/topology"
)

func nodeParams() ionode.Params {
	return ionode.Params{
		ServerOverhead: 0.5e-3,
		NumDisks:       1,
		Disk: disk.Params{
			RequestOverhead: 1e-3,
			SeekMin:         2e-3,
			SeekMax:         20e-3,
			FullStroke:      1 << 30,
			ByteTime:        2e-7,
		},
	}
}

func newFS(t testing.TB, nio int) (*sim.Engine, *FS) {
	t.Helper()
	e := sim.NewEngine()
	topo, err := topology.NewMesh2D(8, 8, 16, nio, 1)
	if err != nil {
		t.Fatal(err)
	}
	net, err := network.New(e, topo, network.Params{
		Latency: 50e-6, ByteTime: 1e-8, HopTime: 1e-6, MemCopyByteTime: 2e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := New(e, net, nodeParams())
	if err != nil {
		t.Fatal(err)
	}
	return e, fs
}

func TestLayoutValidate(t *testing.T) {
	cases := []struct {
		l  Layout
		ok bool
	}{
		{Layout{StripeUnit: 65536, StripeFactor: 4, FirstNode: 0}, true},
		{Layout{StripeUnit: 0, StripeFactor: 4, FirstNode: 0}, false},
		{Layout{StripeUnit: 65536, StripeFactor: 0, FirstNode: 0}, false},
		{Layout{StripeUnit: 65536, StripeFactor: 5, FirstNode: 0}, false},
		{Layout{StripeUnit: 65536, StripeFactor: 4, FirstNode: 4}, false},
		{Layout{StripeUnit: 65536, StripeFactor: 4, FirstNode: -1}, false},
	}
	for i, c := range cases {
		err := c.l.Validate(4)
		if (err == nil) != c.ok {
			t.Errorf("case %d: Validate = %v, want ok=%v", i, err, c.ok)
		}
	}
}

func TestMapRangeRoundRobin(t *testing.T) {
	_, fs := newFS(t, 4)
	f, err := fs.Create("a", Layout{StripeUnit: 100, StripeFactor: 4, FirstNode: 0}, 4000)
	if err != nil {
		t.Fatal(err)
	}
	chunks := f.mapRange(nil, 0, 400)
	if len(chunks) != 4 {
		t.Fatalf("chunks = %d, want 4", len(chunks))
	}
	for i, c := range chunks {
		if c.Node != i {
			t.Fatalf("chunk %d on node %d, want %d", i, c.Node, i)
		}
		if c.Len != 100 {
			t.Fatalf("chunk %d len %d, want 100", i, c.Len)
		}
	}
}

func TestMapRangeFirstNodeOffset(t *testing.T) {
	_, fs := newFS(t, 4)
	f, err := fs.Create("a", Layout{StripeUnit: 100, StripeFactor: 3, FirstNode: 2}, 3000)
	if err != nil {
		t.Fatal(err)
	}
	chunks := f.mapRange(nil, 0, 300)
	wantNodes := []int{2, 3, 0} // wraps over 4 FS nodes
	for i, c := range chunks {
		if c.Node != wantNodes[i] {
			t.Fatalf("chunk %d node %d, want %d", i, c.Node, wantNodes[i])
		}
	}
}

func TestMapRangeUnalignedStart(t *testing.T) {
	_, fs := newFS(t, 4)
	f, err := fs.Create("a", Layout{StripeUnit: 100, StripeFactor: 4, FirstNode: 0}, 4000)
	if err != nil {
		t.Fatal(err)
	}
	chunks := f.mapRange(nil, 150, 100)
	if len(chunks) != 2 {
		t.Fatalf("chunks = %d, want 2", len(chunks))
	}
	if chunks[0].Node != 1 || chunks[0].Len != 50 {
		t.Fatalf("first chunk = %+v, want node 1 len 50", chunks[0])
	}
	if chunks[1].Node != 2 || chunks[1].Len != 50 {
		t.Fatalf("second chunk = %+v, want node 2 len 50", chunks[1])
	}
}

// Property: mapRange covers the requested range exactly, in order, with no
// chunk crossing a stripe-unit boundary.
func TestMapRangeCoversProperty(t *testing.T) {
	_, fs := newFS(t, 4)
	f, err := fs.Create("a", Layout{StripeUnit: 4096, StripeFactor: 3, FirstNode: 1}, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(offRaw, sizeRaw uint32) bool {
		off := int64(offRaw % (1 << 19))
		size := int64(sizeRaw % (1 << 16))
		chunks := f.mapRange(nil, off, size)
		var covered int64
		pos := off
		for _, c := range chunks {
			if c.FileOff != pos || c.Len <= 0 {
				return false
			}
			if c.FileOff/4096 != (c.FileOff+c.Len-1)/4096 {
				return false // crosses stripe boundary
			}
			pos += c.Len
			covered += c.Len
		}
		return covered == size
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: consecutive stripes on the same node map to consecutive disk
// offsets when the file was created with a covering size hint (physical
// contiguity of the per-node share).
func TestPerNodeContiguity(t *testing.T) {
	_, fs := newFS(t, 4)
	su := int64(100)
	f, err := fs.Create("a", Layout{StripeUnit: su, StripeFactor: 2, FirstNode: 0}, 10000)
	if err != nil {
		t.Fatal(err)
	}
	chunks := f.mapRange(nil, 0, 10000)
	lastDisk := map[int]int64{}
	for _, c := range chunks {
		if prev, ok := lastDisk[c.Node]; ok {
			if c.DiskOff != prev {
				t.Fatalf("node %d: disk offset %d, want %d (contiguous)", c.Node, c.DiskOff, prev)
			}
		}
		lastDisk[c.Node] = c.DiskOff + c.Len
	}
}

func TestWriteBeyondHintGrows(t *testing.T) {
	e, fs := newFS(t, 2)
	f, err := fs.Create("a", Layout{StripeUnit: 65536, StripeFactor: 2, FirstNode: 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	e.Spawn("w", func(p *sim.Proc) {
		f.Transfer(p, 0, 0, 1<<20, true)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if f.Size() != 1<<20 {
		t.Fatalf("Size = %d, want %d", f.Size(), 1<<20)
	}
}

func TestTransferParallelAcrossIONodes(t *testing.T) {
	// A full-stripe read over 4 nodes should take roughly the time of one
	// node's share, not 4x.
	const su = 1 << 20
	run := func(factor int) float64 {
		e, fs := newFS(t, 4)
		f, err := fs.Create("a", Layout{StripeUnit: su, StripeFactor: factor, FirstNode: 0}, 4*su)
		if err != nil {
			t.Fatal(err)
		}
		var took float64
		e.Spawn("r", func(p *sim.Proc) {
			start := p.Now()
			f.Transfer(p, 0, 0, 4*su, false)
			took = p.Now() - start
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return took
	}
	one := run(1)
	four := run(4)
	if four > one/2 {
		t.Fatalf("4-node read %g not much faster than 1-node read %g", four, one)
	}
}

func TestTransferAccountsWrites(t *testing.T) {
	e, fs := newFS(t, 2)
	f, err := fs.Create("a", Layout{StripeUnit: 1000, StripeFactor: 2, FirstNode: 0}, 4000)
	if err != nil {
		t.Fatal(err)
	}
	e.Spawn("w", func(p *sim.Proc) {
		f.Transfer(p, 0, 0, 4000, true)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for i := 0; i < fs.NumIONodes(); i++ {
		total += fs.IONode(i).Stats().BytesWrite
	}
	if total != 4000 {
		t.Fatalf("bytes written at nodes = %d, want 4000", total)
	}
}

func TestDistinctFilesDistinctStorage(t *testing.T) {
	_, fs := newFS(t, 2)
	a, _ := fs.Create("a", Layout{StripeUnit: 100, StripeFactor: 2, FirstNode: 0}, 1000)
	b, _ := fs.Create("b", Layout{StripeUnit: 100, StripeFactor: 2, FirstNode: 0}, 1000)
	ca := a.mapRange(nil, 0, 100)[0]
	cb := b.mapRange(nil, 0, 100)[0]
	if ca.Node == cb.Node && ca.Disk == cb.Disk && ca.DiskOff == cb.DiskOff {
		t.Fatal("two files share the same disk bytes")
	}
}

// Regression: re-creating a file must truncate in place, reusing the old
// disk region instead of leaking it in the bump allocator — otherwise the
// file migrates to ever-higher disk offsets across iterations, perturbing
// simulated seek distances.
func TestRecreateReusesDiskOffsets(t *testing.T) {
	_, fs := newFS(t, 2)
	layout := Layout{StripeUnit: 100, StripeFactor: 2, FirstNode: 0}
	f, err := fs.Create("a", layout, 1000)
	if err != nil {
		t.Fatal(err)
	}
	first := f.mapRange(nil, 0, 1000)
	for i := 0; i < 5; i++ {
		g, err := fs.Create("a", layout, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if g != f {
			t.Fatal("re-create with same layout returned a new file")
		}
		if g.Size() != 0 {
			t.Fatalf("re-create did not truncate: size = %d", g.Size())
		}
		chunks := g.mapRange(nil, 0, 1000)
		for j, c := range chunks {
			if c != first[j] {
				t.Fatalf("iteration %d chunk %d = %+v, want %+v (disk offsets must be stable)",
					i, j, c, first[j])
			}
		}
	}
}

// Re-creating with a larger size hint must extend the reused storage.
func TestRecreateLargerHintGrows(t *testing.T) {
	_, fs := newFS(t, 2)
	layout := Layout{StripeUnit: 100, StripeFactor: 2, FirstNode: 0}
	if _, err := fs.Create("a", layout, 1000); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("a", layout, 4000)
	if err != nil {
		t.Fatal(err)
	}
	// The first 1000 bytes keep their offsets; the rest is addressable.
	chunks := f.mapRange(nil, 0, 4000)
	var covered int64
	for _, c := range chunks {
		covered += c.Len
	}
	if covered != 4000 {
		t.Fatalf("covered %d bytes, want 4000", covered)
	}
}

// A re-create with a different layout gets fresh storage.
func TestRecreateDifferentLayoutIsFresh(t *testing.T) {
	_, fs := newFS(t, 2)
	f, err := fs.Create("a", Layout{StripeUnit: 100, StripeFactor: 2, FirstNode: 0}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	g, err := fs.Create("a", Layout{StripeUnit: 200, StripeFactor: 1, FirstNode: 0}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if g == f {
		t.Fatal("layout change must not reuse the old file")
	}
	if again, err := fs.Create("a", g.Layout(), 1000); err != nil || again != g {
		t.Fatalf("Create = %v, %v; want the re-created file", again, err)
	}
}

// Regression: a write far past the size hint must grow the file in one
// extent covering the offset, not one 8 MB quantum at a time.
func TestFarPastHintWriteGrowsOnce(t *testing.T) {
	e, fs := newFS(t, 2)
	f, err := fs.Create("a", Layout{StripeUnit: 65536, StripeFactor: 2, FirstNode: 0}, 65536)
	if err != nil {
		t.Fatal(err)
	}
	const far = 256 << 20 // 32 quanta past the hint
	e.Spawn("w", func(p *sim.Proc) {
		f.Transfer(p, 0, far, 4096, true)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for rel := range f.extents {
		if n := len(f.extents[rel]); n > 2 {
			t.Fatalf("node %d has %d extents, want <= 2 (hint + one growth)", rel, n)
		}
	}
	if f.Size() != far+4096 {
		t.Fatalf("Size = %d, want %d", f.Size(), far+4096)
	}
}

// The same local offset must map to the same disk offset on repeated
// lookups, including ones that triggered growth.
func TestLocalToDiskStable(t *testing.T) {
	_, fs := newFS(t, 2)
	f, err := fs.Create("a", Layout{StripeUnit: 4096, StripeFactor: 2, FirstNode: 0}, 8192)
	if err != nil {
		t.Fatal(err)
	}
	offsets := []int64{0, 4095, 4096, 1 << 20, 64 << 20}
	got := make([]int64, len(offsets))
	for i, off := range offsets {
		got[i] = f.localToDisk(0, off)
	}
	for i, off := range offsets {
		if again := f.localToDisk(0, off); again != got[i] {
			t.Fatalf("localToDisk(0, %d) = %d then %d", off, got[i], again)
		}
	}
}

func TestMultiDiskRoundRobin(t *testing.T) {
	e := sim.NewEngine()
	topo, _ := topology.NewSwitched(4, 2, 1, 2)
	net, _ := network.New(e, topo, network.Params{
		Latency: 40e-6, ByteTime: 2.5e-8, HopTime: 1e-6, MemCopyByteTime: 2e-9,
	})
	par := nodeParams()
	par.NumDisks = 4
	fs, err := New(e, net, par)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := fs.Create("a", Layout{StripeUnit: 100, StripeFactor: 1, FirstNode: 0}, 1600)
	chunks := f.mapRange(nil, 0, 1600)
	seen := map[int]bool{}
	for _, c := range chunks {
		seen[c.Disk] = true
	}
	if len(seen) != 4 {
		t.Fatalf("stripes hit %d disks, want 4", len(seen))
	}
}

func TestBadRangePanics(t *testing.T) {
	_, fs := newFS(t, 2)
	f, _ := fs.Create("a", Layout{StripeUnit: 100, StripeFactor: 1, FirstNode: 0}, 0)
	defer func() {
		if recover() == nil {
			t.Error("negative range did not panic")
		}
	}()
	f.mapRange(nil, -1, 10)
}

func TestDegradedIONodeStretchesStripedRead(t *testing.T) {
	// Fault injection: one slow I/O node gates a full-stripe transfer —
	// the hardware-imbalance effect behind the paper's "beyond a certain
	// level, imbalance in the architecture results in degradation".
	run := func(degrade bool) float64 {
		e, fs := newFS(t, 4)
		if degrade {
			fs.IONode(2).Disk(0).SetDegrade(8)
		}
		f, err := fs.Create("a", Layout{StripeUnit: 65536, StripeFactor: 4, FirstNode: 0}, 4<<20)
		if err != nil {
			t.Fatal(err)
		}
		var took float64
		e.Spawn("r", func(p *sim.Proc) {
			start := p.Now()
			f.Transfer(p, 0, 0, 4<<20, false)
			took = p.Now() - start
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return took
	}
	healthy, faulty := run(false), run(true)
	if faulty < 3*healthy {
		t.Fatalf("degraded node run %g not well above healthy %g", faulty, healthy)
	}
}
