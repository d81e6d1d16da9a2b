package ionode

import (
	"errors"
	"math"
	"testing"

	"pario/internal/disk"
	"pario/internal/sim"
)

func testParams() Params {
	return Params{
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

func newNode(t *testing.T, par Params) (*sim.Engine, *Node) {
	t.Helper()
	e := sim.NewEngine()
	n, err := New(e, "io0", par)
	if err != nil {
		t.Fatal(err)
	}
	return e, n
}

func TestReadGoesToDisk(t *testing.T) {
	e, n := newNode(t, testParams())
	var took float64
	e.Spawn("u", func(p *sim.Proc) {
		start := p.Now()
		n.Access(p, 0, 0, 1000, false)
		took = p.Now() - start
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	par := testParams()
	min := par.ServerOverhead + par.Disk.RequestOverhead + 1000*par.Disk.ByteTime
	if took < min {
		t.Fatalf("read took %g, want >= %g", took, min)
	}
	if n.Stats().Reads != 1 {
		t.Fatalf("Reads = %d, want 1", n.Stats().Reads)
	}
}

func TestMultipleDisksOverlap(t *testing.T) {
	par := testParams()
	par.NumDisks = 4
	e, n := newNode(t, par)
	const size = 1 << 22 // 4 MB: ~0.84 s at 5 MB/s
	var last float64
	for i := 0; i < 4; i++ {
		dsk := i
		e.Spawn("u", func(p *sim.Proc) {
			n.Access(p, dsk, 0, size, false)
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	oneXfer := float64(size) * par.Disk.ByteTime
	if last > 1.5*oneXfer {
		t.Fatalf("4 disks finished at %g, want ~%g (parallel)", last, oneXfer)
	}
}

func TestSingleDiskSerializes(t *testing.T) {
	e, n := newNode(t, testParams())
	const size = 1 << 22
	var last float64
	for i := 0; i < 4; i++ {
		e.Spawn("u", func(p *sim.Proc) {
			n.Access(p, 0, 0, size, false)
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	oneXfer := float64(size) * testParams().Disk.ByteTime
	if last < 3.5*oneXfer {
		t.Fatalf("4 requests on one disk finished at %g, want >= %g", last, 3.5*oneXfer)
	}
}

func TestWriteBehindCacheFastPath(t *testing.T) {
	par := testParams()
	par.CacheBytes = 64 << 20
	par.CacheCopyByteTime = 1e-9
	e, n := newNode(t, par)
	var took float64
	e.Spawn("u", func(p *sim.Proc) {
		start := p.Now()
		n.Access(p, 0, 0, 1<<20, true)
		took = p.Now() - start
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	diskTime := float64(1<<20) * par.Disk.ByteTime
	if took >= diskTime {
		t.Fatalf("cached write took %g, want << disk time %g", took, diskTime)
	}
	// Drain must still reach the disk by end of run.
	if n.Stats().BytesWrite != 1<<20 {
		t.Fatalf("BytesWrite = %d, want %d", n.Stats().BytesWrite, 1<<20)
	}
	if n.DirtyBytes() != 0 {
		t.Fatalf("DirtyBytes = %d after drain, want 0", n.DirtyBytes())
	}
}

func TestWriteBehindCacheBoundsBacklog(t *testing.T) {
	par := testParams()
	par.CacheBytes = 2 << 20 // small cache
	par.CacheCopyByteTime = 1e-9
	e, n := newNode(t, par)
	var took float64
	e.Spawn("u", func(p *sim.Proc) {
		start := p.Now()
		for i := 0; i < 8; i++ {
			n.Access(p, 0, int64(i)<<20, 1<<20, true)
		}
		took = p.Now() - start
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	diskTime := float64(1<<20) * par.Disk.ByteTime
	// With a 2 MB cache and 8 MB written, at least ~5 writes must have
	// waited for drains, so elapsed is within a small factor of disk speed.
	if took < 4*diskTime {
		t.Fatalf("8 MB through 2 MB cache took %g, want >= %g (backpressure)", took, 4*diskTime)
	}
}

func TestNoCacheWritesAreSynchronous(t *testing.T) {
	e, n := newNode(t, testParams())
	var took float64
	e.Spawn("u", func(p *sim.Proc) {
		start := p.Now()
		n.Access(p, 0, 0, 1<<20, true)
		took = p.Now() - start
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	diskTime := float64(1<<20) * testParams().Disk.ByteTime
	if took < diskTime {
		t.Fatalf("uncached write took %g, want >= %g", took, diskTime)
	}
}

func TestServerOverheadContends(t *testing.T) {
	par := testParams()
	par.ServerOverhead = 10e-3
	par.NumDisks = 4 // disks parallel; CPU is the bottleneck
	par.Disk.ByteTime = 1e-9
	e, n := newNode(t, par)
	var last float64
	for i := 0; i < 4; i++ {
		dsk := i
		e.Spawn("u", func(p *sim.Proc) {
			n.Access(p, dsk, 0, 10, false)
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if last < 4*par.ServerOverhead {
		t.Fatalf("CPU-bound requests finished at %g, want >= %g", last, 4*par.ServerOverhead)
	}
}

func TestBadDiskIndexPanics(t *testing.T) {
	e, n := newNode(t, testParams())
	e.Spawn("u", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("bad disk index did not panic")
			}
			panic("unwind")
		}()
		n.Access(p, 5, 0, 10, false)
	})
	defer func() { recover() }()
	_ = e.Run()
}

func TestInvalidParamsRejected(t *testing.T) {
	e := sim.NewEngine()
	for _, tc := range []struct {
		name string
		edit func(*Params)
	}{
		{"zero params", func(p *Params) { *p = Params{} }},
		{"zero disks", func(p *Params) { p.NumDisks = 0 }},
		{"negative cache", func(p *Params) { p.CacheBytes = -1 }},
		// A cached write completes at the end of its copy; without a copy
		// cost it would have no event to complete on.
		{"copy-free write-behind", func(p *Params) { p.CacheBytes = 1 << 20 }},
	} {
		par := testParams()
		tc.edit(&par)
		if _, err := New(e, "x", par); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	par := testParams()
	par.CacheBytes, par.CacheCopyByteTime = 1<<20, 1e-9
	if _, err := New(e, "x", par); err != nil {
		t.Fatalf("write-behind with a copy cost rejected: %v", err)
	}
}

func TestRequestCounter(t *testing.T) {
	e, n := newNode(t, testParams())
	e.Spawn("u", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			n.Access(p, 0, int64(i)*100, 100, false)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Requests() != 5 {
		t.Fatalf("Requests = %d, want 5", n.Requests())
	}
}

func TestCrashDropsRequestsUntilRecover(t *testing.T) {
	e, n := newNode(t, testParams())
	var crashErr, okErr error
	e.Spawn("u", func(p *sim.Proc) {
		n.Crash()
		crashErr = n.Access(p, 0, 0, 1000, false)
		n.Recover()
		okErr = n.Access(p, 0, 0, 1000, false)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(crashErr, ErrCrashed) {
		t.Fatalf("crashed-node access returned %v, want ErrCrashed", crashErr)
	}
	if okErr != nil {
		t.Fatalf("recovered-node access returned %v", okErr)
	}
}

// Recover repairs the node's backing disks too: a crash window that also
// failed a drive ends in one restorative action.
func TestRecoverRestoresDisks(t *testing.T) {
	e, n := newNode(t, testParams())
	var errBefore, errAfter error
	var busy, want float64
	e.Spawn("u", func(p *sim.Proc) {
		d := n.Disk(0)
		d.SetFailed(true)
		d.SetDegrade(8)
		errBefore = n.Access(p, 0, 0, 1000, false)
		n.Recover()
		busy, want = d.Stats().BusySec, d.ServiceTime(0, 1000)
		errAfter = n.Access(p, 0, 0, 1000, false)
		busy = d.Stats().BusySec - busy
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(errBefore, disk.ErrFailed) {
		t.Fatalf("access on failed drive returned %v, want disk.ErrFailed", errBefore)
	}
	if errAfter != nil {
		t.Fatalf("access after Recover returned %v", errAfter)
	}
	if math.Abs(busy-want) > 1e-12 {
		t.Fatalf("service after Recover = %g s, want the healthy %g s", busy, want)
	}
}

func TestNodeStallDelaysService(t *testing.T) {
	e, n := newNode(t, testParams())
	n.Stall(0.25) // phantom request pinning the node CPU from t=0
	var done float64
	e.Spawn("u", func(p *sim.Proc) {
		n.Access(p, 0, 0, 1000, false)
		done = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	par := testParams()
	min := 0.25 + par.ServerOverhead + par.Disk.RequestOverhead + 1000*par.Disk.ByteTime
	if done < min {
		t.Fatalf("access behind a 0.25s node stall finished at %g, want >= %g", done, min)
	}
}

// A write absorbed by the write-behind cache whose drain then hits a failed
// drive must fail-stop the run: silently losing dirty data would corrupt
// the measurement.
func TestWriteBehindDrainFailureAborts(t *testing.T) {
	par := testParams()
	par.CacheBytes = 1 << 20
	par.CacheCopyByteTime = 1e-9
	e, n := newNode(t, par)
	e.Spawn("u", func(p *sim.Proc) {
		n.Disk(0).SetFailed(true)
		if err := n.Access(p, 0, 0, 1000, true); err != nil {
			t.Errorf("cached write returned %v before the drain ran", err)
		}
	})
	err := e.Run()
	if err == nil {
		t.Fatal("run with a failed drain completed cleanly")
	}
	if !errors.Is(err, disk.ErrFailed) {
		t.Fatalf("run error %v does not wrap disk.ErrFailed", err)
	}
}

// BenchmarkAccess measures one Node.Access, a 64 KB write at a strided
// offset, with the write-behind cache (wb) and without (nowb): the calls
// perfbench's ionode.access_wb_ns and ionode.access_ns probes time.
func BenchmarkAccess(b *testing.B) {
	for _, bc := range []struct {
		name  string
		cache int64
	}{{"wb", 8 << 20}, {"nowb", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			par := testParams()
			if bc.cache > 0 {
				par.CacheBytes, par.CacheCopyByteTime = bc.cache, 2e-8
			}
			e := sim.NewEngine()
			n, err := New(e, "io0", par)
			if err != nil {
				b.Fatal(err)
			}
			e.Spawn("u", func(p *sim.Proc) {
				for i := 0; i < b.N; i++ {
					_ = n.Access(p, 0, int64((i*7919)%4096)*(64<<10), 64<<10, true)
				}
			})
			b.ReportAllocs()
			b.ResetTimer()
			if err := e.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
