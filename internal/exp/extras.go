package exp

import (
	"fmt"
	"io"

	"pario/internal/core"
	"pario/internal/machine"
	"pario/internal/ooc"
	"pario/internal/pio"
	"pario/internal/sim"
	sstats "pario/internal/stats"
)

// The experiments below go beyond the paper's published artifacts: they
// quantify claims the paper makes in prose (§5) and the design choices
// DESIGN.md §5 lists for ablation.

func init() {
	register(&Experiment{
		ID:    "modes",
		Title: "PFS shared-file access modes on a shared-append workload",
		Expect: "paper §5 (prose): the PFS/PIOFS mode zoo makes I/O programming hard; the modes " +
			"differ sharply in cost (M_LOG serializes, M_SYNC runs in lockstep, M_RECORD and " +
			"M_UNIX are free of coordination, M_GLOBAL reads once and broadcasts)",
		Run: func(w io.Writer, s Scale) error {
			procs, ops, opBytes := 16, 16, int64(256<<10)
			if s == Quick {
				procs, ops, opBytes = 4, 4, 64<<10
			}
			m, err := machine.ParagonLarge(16)
			if err != nil {
				return err
			}
			modes := []pio.Mode{pio.ModeUnix, pio.ModeLog, pio.ModeSync, pio.ModeRecord, pio.ModeGlobal}
			reps, err := sweep(modes, func(mode pio.Mode) (core.Report, error) {
				return runModeWorkload(m, procs, ops, opBytes, mode)
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%10s %14s %14s\n", "mode", "wall", "per-op avg")
			for i, mode := range modes {
				wall := reps[i].ExecSec
				fmt.Fprintf(w, "%10s %14s %14s\n", mode, hms(wall), hms(wall/float64(ops)))
			}
			return nil
		},
	})

	register(&Experiment{
		ID:    "sieve",
		Title: "PASSION data sieving on a strided access pattern",
		Expect: "DESIGN.md §5 ablation: sieving trades wasted transfer volume for request count; " +
			"it wins while requests are overhead/seek-dominated and loses as the holes grow",
		Run: func(w io.Writer, s Scale) error {
			pieces, pieceLen := 512, int64(2048)
			if s == Quick {
				pieces = 64
			}
			m, err := machine.ParagonLarge(16)
			if err != nil {
				return err
			}
			gaps := []int64{0, 1, 4, 16, 64}
			type job struct {
				gapX  int64
				sieve bool
			}
			var jobs []job
			for _, gapX := range gaps {
				jobs = append(jobs, job{gapX, false}, job{gapX, true})
			}
			res, err := sweep(jobs, func(j job) (sieveResult, error) {
				return runSieveWorkload(m, pieces, pieceLen, j.gapX*pieceLen, j.sieve)
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%10s | %12s %12s | %12s %10s %8s\n",
				"gap/piece", "piecewise", "sieved", "requests", "waste", "winner")
			for i, gapX := range gaps {
				pw, sv := res[2*i], res[2*i+1]
				winner := "sieve"
				if pw.wall < sv.wall {
					winner = "piecewise"
				}
				fmt.Fprintf(w, "%10d | %12s %12s | %12d %9.1f%% %8s\n",
					gapX, hms(pw.wall), hms(sv.wall), sv.stats.Requests,
					100*sv.stats.WasteFraction(), winner)
			}
			return nil
		},
	})
}

// runModeWorkload runs P ranks each performing the given number of
// operations on one shared file under a PFS mode; the report's ExecSec is
// the workload wall clock.
func runModeWorkload(m *machine.Config, procs, ops int, opBytes int64, mode pio.Mode) (core.Report, error) {
	return core.Run(nil, core.Spec{Machine: m, Procs: procs}, func(sys *core.System) (core.Body, error) {
		f, err := sys.FS.Create("modes.shared", sys.DefaultLayout(), int64(procs*ops)*opBytes)
		if err != nil {
			return nil, err
		}
		handles := make([]*pio.Handle, procs)
		var sf *pio.SharedFile
		return func(p *sim.Proc, rank int) {
			cl := sys.Client(rank, m.Native)
			handles[rank] = cl.Open(p, f)
			sys.Comm.Barrier(p, rank)
			if rank == 0 {
				s, serr := pio.NewSharedFile(sys.Comm, handles, mode, opBytes)
				if serr != nil {
					panic(serr)
				}
				sf = s
			}
			sys.Comm.Barrier(p, rank)
			for i := 0; i < ops; i++ {
				if mode == pio.ModeGlobal {
					sf.Read(p, rank, opBytes)
				} else {
					sf.Write(p, rank, opBytes)
				}
			}
		}, nil
	})
}

// sieveResult is one sweep point of the sieve ablation.
type sieveResult struct {
	wall   float64
	stats  pio.SieveStats
	events uint64
	snap   *sstats.Snapshot
}

// EventCount lets the sweep runner aggregate the point's simulation work.
func (r sieveResult) EventCount() uint64 { return r.events }

// StatsSnapshot lets the sweep runner merge the point's metrics.
func (r sieveResult) StatsSnapshot() *sstats.Snapshot { return r.snap }

// runSieveWorkload times a strided read pattern done either piecewise or
// sieved, returning the wall clock and (for sieved runs) the sieve stats.
func runSieveWorkload(m *machine.Config, pieces int, pieceLen, gap int64, sieve bool) (sieveResult, error) {
	runs := make([]ooc.Run, pieces)
	for i := range runs {
		runs[i] = ooc.Run{Off: int64(i) * (pieceLen + gap), Len: pieceLen}
	}
	extent := int64(pieces)*(pieceLen+gap) + pieceLen

	var stats pio.SieveStats
	rep, err := core.Run(nil, core.Spec{Machine: m, Procs: 1}, func(sys *core.System) (core.Body, error) {
		f, err := sys.FS.Create("sieve.data", sys.DefaultLayout(), extent)
		if err != nil {
			return nil, err
		}
		return func(p *sim.Proc, rank int) {
			h := sys.Client(rank, m.Passion).Open(p, f)
			if sieve {
				stats = h.ReadSieved(p, runs, 4<<20)
				return
			}
			for _, r := range runs {
				h.ReadAt(p, r.Off, r.Len)
			}
		}, nil
	})
	if err != nil {
		return sieveResult{}, err
	}
	return sieveResult{wall: rep.ExecSec, stats: stats, events: rep.Events, snap: rep.Stats}, nil
}
