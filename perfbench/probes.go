package main

import (
	"fmt"
	"time"

	"pario/internal/core"
	"pario/internal/machine"
	"pario/internal/ooc"
	"pario/internal/pfs"
	"pario/internal/pio"
	"pario/internal/sim"
)

// Layer probes: each modelled layer driven alone through its public entry
// point, on a system the benchmark builds, with host time per call taken
// from the span around the engine run. Simulated results are not checked
// here; the artifact goldens pin them.

const (
	probeReps = 5
	kb64      = 64 << 10
)

// probe builds and times an engine run of calls operations, probeReps
// times, as spans named name, and returns the median host nanoseconds per
// call.
func probe(e *env, name string, calls int, build func(calls int) (*sim.Engine, error)) (float64, error) {
	for i := 0; i < probeReps; i++ {
		eng, err := build(calls)
		if err != nil {
			return 0, fmt.Errorf("probe %s: %w", name, err)
		}
		t0 := time.Now()
		if err := eng.Run(); err != nil {
			return 0, fmt.Errorf("probe %s: %w", name, err)
		}
		e.tr.record(0, 0, name, "", calls, t0, time.Now())
	}
	return median(e.tr.perCall(name, "")), nil
}

// largeSystem is the 12-I/O-node large Paragon with procs ranks; wb=false
// turns the I/O nodes' write-behind cache off.
func largeSystem(procs int, wb bool) (*core.System, error) {
	cfg, err := machine.ParagonLarge(12)
	if err != nil {
		return nil, err
	}
	if !wb {
		cfg.Node.CacheBytes = 0
	}
	return core.NewSystem(cfg, procs)
}

// spawnLoop runs body calls times in one simulated process on sys.
func spawnLoop(sys *core.System, calls int, body func(p *sim.Proc, i int)) *sim.Engine {
	sys.Eng.Spawn("probe", func(p *sim.Proc) {
		for i := 0; i < calls; i++ {
			body(p, i)
		}
	})
	return sys.Eng
}

// strided spreads call i over a 256 MB region so accesses seek.
func strided(i int) int64 { return int64((i*7919)%4096) * kb64 }

func runSimProbes(e *env, o *outcome) error {
	type probeDef struct {
		name  string
		calls int
		build func(calls int) (*sim.Engine, error)
	}
	file := func(sys *core.System, nio int) (*pfs.File, error) {
		return sys.FS.Create("probe", pfs.Layout{StripeUnit: kb64, StripeFactor: nio}, 512<<20)
	}
	ionodeWrites := func(wb bool) func(calls int) (*sim.Engine, error) {
		return func(calls int) (*sim.Engine, error) {
			sys, err := largeSystem(1, wb)
			if err != nil {
				return nil, err
			}
			n := sys.FS.IONode(0)
			return spawnLoop(sys, calls, func(p *sim.Proc, i int) {
				_ = n.Access(p, 0, strided(i), kb64, true)
			}), nil
		}
	}
	pfsReads := func(nio int) func(calls int) (*sim.Engine, error) {
		return func(calls int) (*sim.Engine, error) {
			sys, err := largeSystem(1, true)
			if err != nil {
				return nil, err
			}
			f, err := file(sys, nio)
			if err != nil {
				return nil, err
			}
			node := sys.Comm.NodeOf(0)
			size := int64(nio) * kb64
			return spawnLoop(sys, calls, func(p *sim.Proc, i int) {
				f.Transfer(p, node, int64(i%256)*size, size, false)
			}), nil
		}
	}
	pioReads := func(iface string) func(calls int) (*sim.Engine, error) {
		return func(calls int) (*sim.Engine, error) {
			sys, err := largeSystem(1, true)
			if err != nil {
				return nil, err
			}
			f, err := file(sys, 12)
			if err != nil {
				return nil, err
			}
			par := sys.Cfg.Fortran
			if iface == "passion" {
				par = sys.Cfg.Passion
			}
			cl := sys.Client(0, par)
			var h *pio.Handle
			return spawnLoop(sys, calls, func(p *sim.Proc, i int) {
				if h == nil {
					h = cl.Open(p, f)
				}
				h.ReadAt(p, strided(i), kb64)
			}), nil
		}
	}
	probes := []probeDef{
		{"sim.dispatch_ns", 200000, func(calls int) (*sim.Engine, error) {
			eng := sim.NewEngine()
			eng.Spawn("probe", func(p *sim.Proc) {
				for i := 0; i < calls; i++ {
					p.Delay(1)
				}
			})
			return eng, nil
		}},
		{"disk.access_ns", 5000, func(calls int) (*sim.Engine, error) {
			sys, err := largeSystem(1, true)
			if err != nil {
				return nil, err
			}
			d := sys.FS.IONode(0).Disk(0)
			return spawnLoop(sys, calls, func(p *sim.Proc, i int) {
				_ = d.Access(p, strided(i), kb64, false)
			}), nil
		}},
		{"ionode.access_ns", 2000, ionodeWrites(false)},
		{"ionode.access_wb_ns", 2000, ionodeWrites(true)},
		{"pfs.transfer_1io_ns", 1000, pfsReads(1)},
		{"pfs.transfer_nio_ns", 1000, pfsReads(12)},
		{"pio.readat_ns.fortran", 2000, pioReads("fortran")},
		{"pio.readat_ns.passion", 2000, pioReads("passion")},
		{"pio.twophase_ns", 100, func(calls int) (*sim.Engine, error) {
			const ranks = 4
			sys, err := largeSystem(ranks, true)
			if err != nil {
				return nil, err
			}
			f, err := file(sys, 12)
			if err != nil {
				return nil, err
			}
			handles := make([]*pio.Handle, ranks)
			var coll *pio.Collective
			for r := 0; r < ranks; r++ {
				r := r
				sys.Eng.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
					handles[r] = sys.Client(r, sys.Cfg.Native).Open(p, f)
					sys.Comm.Barrier(p, r)
					if r == 0 {
						c, cerr := pio.NewCollective(sys.Comm, handles)
						if cerr != nil {
							panic(cerr) // handles are all open on one file
						}
						coll = c
					}
					sys.Comm.Barrier(p, r)
					for i := 0; i < calls; i++ {
						// Each rank owns every ranks-th 8 KB piece of a 1 MB
						// window: the interleaved pattern two-phase absorbs.
						var runs []ooc.Run
						base := int64(i%64) << 20
						for k := int64(r); k < 128; k += ranks {
							runs = append(runs, ooc.Run{Off: base + k*8192, Len: 8192})
						}
						coll.Read(p, r, runs)
					}
				})
			}
			return sys.Eng, nil
		}},
		{"mp.alltoallv_ns", 200, func(calls int) (*sim.Engine, error) {
			const ranks = 8
			sys, err := largeSystem(ranks, true)
			if err != nil {
				return nil, err
			}
			sizes := make([]int64, ranks)
			for i := range sizes {
				sizes[i] = 16 << 10
			}
			for r := 0; r < ranks; r++ {
				r := r
				sys.Eng.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
					for i := 0; i < calls; i++ {
						sys.Comm.Alltoallv(p, r, sizes)
					}
				})
			}
			return sys.Eng, nil
		}},
	}
	for _, pd := range probes {
		v, err := probe(e, pd.name, pd.calls, pd.build)
		if err != nil {
			return err
		}
		o.setLayer(pd.name, v)
	}
	return nil
}
