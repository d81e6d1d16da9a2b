// Package core assembles a complete simulated system — engine, topology,
// interconnect, parallel file system, communicator and per-rank tracing —
// from a machine configuration, runs SPMD workloads on it, and produces the
// measurement report the experiment harness consumes.
//
// This is the orchestration layer every application and experiment goes
// through: it owns the convention that rank i lives on compute node i, that
// each rank has one trace recorder, and that "execution time" is the wall
// clock at which the slowest rank finishes.
package core

import (
	"context"
	"errors"
	"fmt"

	"pario/internal/disk"
	"pario/internal/fault"
	"pario/internal/ionode"
	"pario/internal/machine"
	"pario/internal/mp"
	"pario/internal/network"
	"pario/internal/pfs"
	"pario/internal/pio"
	"pario/internal/sim"
	"pario/internal/stats"
	"pario/internal/topology"
	"pario/internal/trace"
)

// System is one fully wired simulated machine instance.
type System struct {
	Cfg  *machine.Config
	Eng  *sim.Engine
	Topo *topology.Topology
	Net  *network.Network
	FS   *pfs.FS
	Comm *mp.Comm

	Procs     int
	Recorders []*trace.Recorder
}

// NewSystem builds a machine with procs application ranks. Every run of
// this module builds its system through Run; NewSystem stays exported for
// the layer probes of the benchmark module (perfbench/probes.go), which
// drive one layer at a time on a bare system.
func NewSystem(cfg *machine.Config, procs int) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if procs < 1 || procs > cfg.NumCompute {
		return nil, fmt.Errorf("core: %d procs on %d compute nodes", procs, cfg.NumCompute)
	}
	eng := sim.NewEngine()
	topo, err := cfg.Topology()
	if err != nil {
		return nil, err
	}
	net, err := network.New(eng, topo, cfg.Net)
	if err != nil {
		return nil, err
	}
	fs, err := pfs.New(eng, net, cfg.Node)
	if err != nil {
		return nil, err
	}
	comm, err := mp.New(eng, net, procs)
	if err != nil {
		return nil, err
	}
	s := &System{
		Cfg: cfg, Eng: eng, Topo: topo, Net: net, FS: fs, Comm: comm,
		Procs: procs,
	}
	for i := 0; i < procs; i++ {
		s.Recorders = append(s.Recorders, trace.NewRecorder())
	}
	return s, nil
}

// Body is one rank's program, run as that rank's simulated process.
type Body func(p *sim.Proc, rank int)

// Spec is what a run simulates on and how it is observed.
type Spec struct {
	Machine *machine.Config
	// Procs is the number of application ranks; rank i lives on compute
	// node i.
	Procs int
	// Faults, when non-empty, schedules the plan's injections on the run
	// and enables PFS client resilience (see installFaults).
	Faults *fault.Plan
	// Capture logs every rank's data operations with their offsets into
	// Report.Captured. It costs an append per data call and never alters
	// the simulation.
	Capture bool
}

// Run is the one lifecycle of a simulation. It checks ctx, builds the
// system spec names and installs its fault plan, then calls setup, which
// creates the run's files and returns the rank body. It runs the body once
// per rank, bounded by ctx, and returns the run's report.
//
// A nil ctx is unbounded. When ctx is canceled or its deadline passes, the
// simulation is torn down promptly (the engine polls ctx between event
// batches) and the context's error is returned instead of a report.
func Run(ctx context.Context, spec Spec, setup func(sys *System) (Body, error)) (Report, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return Report{}, err
		}
	}
	if spec.Machine == nil {
		return Report{}, errors.New("core: incomplete spec: no machine")
	}
	s, err := NewSystem(spec.Machine, spec.Procs)
	if err != nil {
		return Report{}, err
	}
	for _, rec := range s.Recorders {
		rec.SetCapture(spec.Capture)
	}
	if err := s.installFaults(spec.Faults); err != nil {
		return Report{}, err
	}
	body, err := setup(s)
	if err != nil {
		return Report{}, err
	}
	wall, err := s.runRanks(ctx, body)
	if err != nil {
		return Report{}, err
	}
	return s.makeReport(wall), nil
}

// installFaults schedules a fault plan's injections on the system and —
// because a faulted run without client resilience would fail-stop on the
// first transient — enables the PFS resilience defaults (2 retries, 1 ms
// initial backoff, no timeout), overridden by whatever policy knobs the
// plan sets. The policy runs inside the transfers' event chains: it adds
// events only when it acts (a backoff, a timeout race) and never wakes a
// rank more often than a healthy run does. A nil or empty plan changes
// nothing: no events, no extra metrics, byte-identical output. Run calls
// it before setup, so the plan is in place before any file exists.
func (s *System) installFaults(pl *fault.Plan) error {
	if pl.Empty() {
		return nil
	}
	nodes := make([]*ionode.Node, s.FS.NumIONodes())
	for i := range nodes {
		nodes[i] = s.FS.IONode(i)
	}
	if err := pl.Install(s.Eng, s.Net, nodes); err != nil {
		return err
	}
	r := pfs.Resilience{Retries: 2, BackoffSec: 1e-3}
	if pl.Policy.HasRetries {
		r.Retries = pl.Policy.Retries
	}
	if pl.Policy.HasTimeout {
		r.TimeoutSec = pl.Policy.TimeoutSec
	}
	if pl.Policy.HasBackoff {
		r.BackoffSec = pl.Policy.BackoffSec
	}
	s.FS.SetResilience(r)
	return nil
}

// DefaultLayout returns a layout using the machine's default stripe unit
// over all I/O nodes.
func (s *System) DefaultLayout() pfs.Layout {
	return pfs.Layout{
		StripeUnit:   s.Cfg.DefaultStripeUnit,
		StripeFactor: s.FS.NumIONodes(),
		FirstNode:    0,
	}
}

// Client builds an I/O client for rank with the given interface parameters,
// recording into the rank's recorder.
func (s *System) Client(rank int, par pio.ClientParams) *pio.Client {
	c, err := pio.NewClient(s.FS, s.Comm.NodeOf(rank), par, s.Recorders[rank])
	if err != nil {
		// ClientParams come from a validated machine config; an error here
		// is a programming bug, not an input condition.
		panic(err)
	}
	return c
}

// Compute blocks p for the time to execute flops floating-point operations
// on one compute node.
func (s *System) Compute(p *sim.Proc, flops float64) {
	if flops <= 0 {
		return
	}
	p.Delay(flops / s.Cfg.CPUFlops)
}

// runRanks executes body once per rank (rank processes run concurrently in
// virtual time) and returns the wall-clock execution time: the finish time
// of the slowest rank. The engine is run to completion, so asynchronous
// activity (cache drains, prefetches) is fully accounted. A canceled ctx
// stops the engine for good, but its metrics registry remains
// inspectable.
func (s *System) runRanks(ctx context.Context, body Body) (float64, error) {
	if ctx != nil && ctx.Done() != nil {
		s.Eng.SetInterrupt(ctx.Err)
		defer s.Eng.SetInterrupt(nil)
	}
	finish := make([]float64, s.Procs)
	for r := 0; r < s.Procs; r++ {
		r := r
		s.Eng.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
			body(p, r)
			finish[r] = p.Now()
		})
	}
	if err := s.Eng.Run(); err != nil {
		if errors.Is(err, sim.ErrInterrupted) && ctx != nil && ctx.Err() != nil {
			// Surface the cancellation itself — callers match on
			// context.Canceled / DeadlineExceeded, not kernel internals.
			return 0, ctx.Err()
		}
		return 0, err
	}
	var wall float64
	for _, f := range finish {
		if f > wall {
			wall = f
		}
	}
	return wall, nil
}

// classifiedError carries an explicit taxonomy class chosen by the layer
// that produced the error (see Classify).
type classifiedError struct {
	class string
	err   error
}

func (e *classifiedError) Error() string { return e.err.Error() }
func (e *classifiedError) Unwrap() error { return e.err }

// Classify wraps err with an explicit taxonomy class, letting layers above
// the simulation (e.g. the serving estimate path's "estimate_unsupported")
// extend the ErrorClass vocabulary without this package enumerating them.
func Classify(class string, err error) error {
	return &classifiedError{class: class, err: err}
}

// ErrorClass maps a run error to the stable failure taxonomy shared by the
// degraded-mode artifact and pariod's /metrics: "ok" (nil), "disk_failed",
// "ionode_crashed", "io_timeout", "canceled", "deadlock", or "internal"
// for anything unrecognized. Errors wrapped by Classify answer their
// explicit class.
func ErrorClass(err error) string {
	var ce *classifiedError
	switch {
	case err == nil:
		return "ok"
	case errors.As(err, &ce):
		return ce.class
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return "canceled"
	case errors.Is(err, disk.ErrFailed):
		return "disk_failed"
	case errors.Is(err, ionode.ErrCrashed):
		return "ionode_crashed"
	case errors.Is(err, pfs.ErrRequestTimeout):
		return "io_timeout"
	case errors.Is(err, sim.ErrDeadlock):
		return "deadlock"
	default:
		return "internal"
	}
}

// Report is the outcome of one application run.
type Report struct {
	Machine string
	Procs   int
	IONodes int

	// ExecSec is the wall-clock execution time (slowest rank).
	ExecSec float64
	// IOMaxSec is the largest per-rank cumulative I/O time: the
	// per-process I/O time plotted in the paper's figures.
	IOMaxSec float64
	// IOAggSec is the cumulative I/O time summed over ranks: the
	// convention of the paper's Tables 2-3.
	IOAggSec float64

	// Trace aggregates all ranks' operations.
	Trace *trace.Recorder
	// PerRankIOSec is each rank's cumulative I/O time, for imbalance
	// analysis.
	PerRankIOSec []float64
	// IONodeBusySec is each I/O node's cumulative disk busy time: the
	// architecture-balance view (a saturated partition shows busy times
	// approaching ExecSec).
	IONodeBusySec []float64

	BytesRead    int64
	BytesWritten int64

	// Events is the number of simulation events the run's engine
	// executed — the kernel-level work metric behind the run.
	Events uint64

	// Stats is the cross-layer metrics snapshot of the run: disk seeks
	// and service times, I/O-node queue depth and utilization, network
	// traffic and stalls, PFS request-size histograms, I/O-library
	// discipline counts. Nil only for zero-value Reports.
	Stats *stats.Snapshot

	// Captured is each rank's per-operation I/O log, present only when the
	// run's Spec asked for capture. Feed it to trace.FromCaptured to emit
	// a replayable trace.
	Captured [][]trace.CapturedOp
}

// EventCount returns the engine event count; it satisfies the experiment
// runner's EventCounter so sweeps can aggregate simulation work.
func (r Report) EventCount() uint64 { return r.Events }

// StatsSnapshot returns the run's metrics snapshot; it satisfies the
// experiment runner's SnapshotProvider so sweeps can aggregate metrics
// across points.
func (r Report) StatsSnapshot() *stats.Snapshot { return r.Stats }

// MaxIONodeUtil returns the busiest I/O node's disk busy time relative to
// the execution time. A node with several drives, or with write-behind
// drains completing after the last rank finishes, can exceed 1.
func (r Report) MaxIONodeUtil() float64 {
	if r.ExecSec <= 0 {
		return 0
	}
	var max float64
	for _, b := range r.IONodeBusySec {
		if b > max {
			max = b
		}
	}
	return max / r.ExecSec
}

// IOImbalance returns max/mean of the per-rank I/O times (1 = perfectly
// balanced; 0 when no rank did I/O).
func (r Report) IOImbalance() float64 {
	var sum, max float64
	for _, v := range r.PerRankIOSec {
		sum += v
		if v > max {
			max = v
		}
	}
	if sum == 0 {
		return 0
	}
	mean := sum / float64(len(r.PerRankIOSec))
	return max / mean
}

// BandwidthMBs is the application-level I/O bandwidth in MB/s: total volume
// over the per-process I/O time (as the paper's Figure 7 reports).
func (r Report) BandwidthMBs() float64 {
	if r.IOMaxSec <= 0 {
		return 0
	}
	return float64(r.BytesRead+r.BytesWritten) / 1e6 / r.IOMaxSec
}

// IOPctOfExec returns the per-process I/O share of execution time.
func (r Report) IOPctOfExec() float64 {
	if r.ExecSec <= 0 {
		return 0
	}
	return 100 * r.IOMaxSec / r.ExecSec
}

// makeReport assembles the report for a finished run.
func (s *System) makeReport(execSec float64) Report {
	agg := trace.NewRecorder()
	var ioMax float64
	perRank := make([]float64, 0, len(s.Recorders))
	for _, rec := range s.Recorders {
		agg.Merge(rec)
		t := rec.IOSec()
		perRank = append(perRank, t)
		if t > ioMax {
			ioMax = t
		}
	}
	busy := make([]float64, 0, s.FS.NumIONodes())
	for i := 0; i < s.FS.NumIONodes(); i++ {
		busy = append(busy, s.FS.IONode(i).Stats().BusySec)
	}
	// Fold the orchestration-level view into the snapshot: execution time
	// and the I/O-partition balance the layers below cannot see (they know
	// busy time, not the run's span).
	snap := s.Eng.Metrics().Snapshot(s.Eng.Now())
	snap.WallSec = s.Eng.WallSec()
	var busySum, utilMax float64
	for _, b := range busy {
		busySum += b
		if execSec > 0 && b/execSec > utilMax {
			utilMax = b / execSec
		}
	}
	snap.SetFloat("core.exec_sec", execSec, stats.AggSum)
	snap.SetFloat("ionode.busy_sec", busySum, stats.AggSum)
	snap.SetFloat("ionode.util_max", utilMax, stats.AggMax)
	rep := Report{
		Machine:       s.Cfg.Name,
		Procs:         s.Procs,
		IONodes:       s.FS.NumIONodes(),
		ExecSec:       execSec,
		IOMaxSec:      ioMax,
		IOAggSec:      agg.IOSec(),
		Trace:         agg,
		PerRankIOSec:  perRank,
		IONodeBusySec: busy,
		BytesRead:     agg.Get(trace.Read).Bytes,
		BytesWritten:  agg.Get(trace.Write).Bytes,
		Events:        s.Eng.Events(),
		Stats:         snap,
	}
	if len(s.Recorders) > 0 && s.Recorders[0].Capturing() {
		rep.Captured = make([][]trace.CapturedOp, len(s.Recorders))
		for i, rec := range s.Recorders {
			rep.Captured[i] = rec.Captured()
		}
	}
	return rep
}
