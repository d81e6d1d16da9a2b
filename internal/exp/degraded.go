package exp

// The degraded-mode artifact: the paper's Figure-1-style bandwidth view
// re-measured under injected faults. Every row runs the same sequential
// read workload; only the fault plan changes, from healthy through
// increasingly degraded drives, a server/link brownout, a transient outage
// the retry policy rides through, and a permanent outage that fail-stops
// the run with a structured error. The fault windows are fixed virtual
// times chosen inside the healthy run's span, so the artifact is exactly
// as deterministic as the fault-free ones.

import (
	"fmt"
	"io"

	"pario/internal/core"
	"pario/internal/fault"
	"pario/internal/machine"
	"pario/internal/sim"
	sstats "pario/internal/stats"
)

func init() {
	register(&Experiment{
		ID:    "degraded",
		Title: "Sequential-read bandwidth under injected faults (fig1 workload, degraded modes)",
		Expect: "bandwidth falls roughly with the degrade factor; a brownout costs its stall window; " +
			"a transient outage is absorbed by retries (nonzero retry count, full volume); a " +
			"permanent outage aborts with a structured disk_failed error instead of a panic",
		Run: func(w io.Writer, s Scale) error {
			procs, chunksPerRank, chunk := 16, 16, int64(1<<20)
			if s == Quick {
				procs, chunksPerRank, chunk = 4, 8, 256<<10
			}
			m, err := machine.ParagonLarge(16)
			if err != nil {
				return err
			}
			// The healthy quick run spans ~0.23s of virtual time and the
			// full run is longer, so windows anchored at t=50ms land inside
			// both. The transient outage's 30ms fail window is shorter than
			// the retry ladder's reach (5+10+20+... ms of backoff over 8
			// retries), so those rows ride it out; the permanent outage
			// exhausts its 2 retries and fail-stops.
			type scenario struct {
				name string
				plan string
			}
			scenarios := []scenario{
				{"healthy", ""},
				{"degrade-2x", "disk:degrade=2@t=0"},
				{"degrade-4x", "disk:degrade=4@t=0"},
				{"degrade-8x", "disk:degrade=8@t=0"},
				{"brownout", "ionode:stall=100ms@t=50ms;link:slow=4x@t=50ms..150ms"},
				{"transient-outage", "disk:0:fail@t=50ms..80ms;retry=8;backoff=5ms"},
				{"outage", "disk:0:fail@t=50ms;retry=2;backoff=10ms"},
			}
			res, err := sweep(scenarios, func(sc scenario) (degradedResult, error) {
				return runDegraded(m, procs, chunksPerRank, chunk, sc.plan)
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%18s | %10s %10s %8s %8s | %s\n",
				"scenario", "wall", "MB/s", "retries", "faults", "outcome")
			for i, sc := range scenarios {
				r := res[i]
				if r.err != nil {
					fmt.Fprintf(w, "%18s | %10s %10s %8s %8d | aborted: %s\n",
						sc.name, "-", "-", "-", r.faults, core.ErrorClass(r.err))
					continue
				}
				fmt.Fprintf(w, "%18s | %10s %10.1f %8d %8d | ok\n",
					sc.name, hms(r.wall), r.bw, r.retries, r.faults)
			}
			return nil
		},
	})
}

// degradedResult is one scenario's outcome. A fail-stopped run carries its
// structured error instead of failing the sweep: the abort is the
// measurement.
type degradedResult struct {
	wall    float64
	bw      float64
	retries int64
	faults  int64
	err     error
	events  uint64
	snap    *sstats.Snapshot
}

func (r degradedResult) EventCount() uint64              { return r.events }
func (r degradedResult) StatsSnapshot() *sstats.Snapshot { return r.snap }

// runDegraded runs P ranks sequentially reading disjoint partitions of one
// striped file under the given fault plan ("" = healthy).
func runDegraded(m *machine.Config, procs, chunksPerRank int, chunk int64, plan string) (degradedResult, error) {
	pl, err := fault.Parse(plan)
	if err != nil {
		return degradedResult{}, err
	}
	perRank := int64(chunksPerRank) * chunk
	var sys *core.System
	rep, err := core.Run(nil, core.Spec{Machine: m, Procs: procs, Faults: pl}, func(s *core.System) (core.Body, error) {
		f, err := s.FS.Create("degraded.data", s.DefaultLayout(), int64(procs)*perRank)
		if err != nil {
			return nil, err
		}
		sys = s
		return func(p *sim.Proc, rank int) {
			h := s.Client(rank, m.Native).Open(p, f)
			base := int64(rank) * perRank
			for i := 0; i < chunksPerRank; i++ {
				h.ReadAt(p, base+int64(i)*chunk, chunk)
			}
		}, nil
	})
	if sys == nil {
		// The ranks never started: a setup error, not a fault.
		return degradedResult{}, err
	}
	out := degradedResult{}
	if !pl.Empty() {
		// These counters exist exactly when a plan installed them; reading
		// them through the registry on a healthy run would register them
		// and pollute the healthy metrics table.
		out.retries = sys.Eng.Metrics().Counter("pfs.retries").Value()
		out.faults = sys.Eng.Metrics().Counter("fault.injections").Value()
	}
	if err != nil {
		out.err = err
		return out, nil
	}
	out.wall = rep.ExecSec
	out.bw = rep.BandwidthMBs()
	out.events = rep.Events
	out.snap = rep.Stats
	return out, nil
}
