package exp

// The sweep runner. Every paper artifact is a sweep over independent
// simulated runs — each point builds its own sim.Engine/core.System — so
// the points are embarrassingly parallel. Map executes them on a pool of
// OS-thread-backed workers while collecting results in deterministic input
// order, which keeps experiment output byte-identical at any worker count:
// experiments build a job list, run it through Map, and only then format
// the ordered results.

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	sstats "pario/internal/stats"
)

// workerMu guards the package-level worker-count default and the sweep
// statistics accumulator.
var workerMu sync.Mutex

// workers is the default pool size used by experiments (see SetWorkers).
var workers = runtime.NumCPU()

// SetWorkers sets the worker count experiments use for their sweeps.
// Values below 1 are clamped to 1. It returns the previous setting.
func SetWorkers(n int) int {
	if n < 1 {
		n = 1
	}
	workerMu.Lock()
	defer workerMu.Unlock()
	prev := workers
	workers = n
	return prev
}

// Workers returns the current default worker count.
func Workers() int {
	workerMu.Lock()
	defer workerMu.Unlock()
	return workers
}

// Stats aggregates the points of one or more sweeps.
type Stats struct {
	// Sweeps is the number of Map calls aggregated.
	Sweeps int
	// Points is the total number of sweep points executed.
	Points int
	// Events is the total simulation events executed across points.
	Events uint64
	// WallSum is the summed per-point wall clock — the sequential cost.
	WallSum time.Duration
	// Elapsed is the real time the sweeps took end to end.
	Elapsed time.Duration
}

// Add folds another sweep's stats into s.
func (s *Stats) Add(o Stats) {
	s.Sweeps += o.Sweeps
	s.Points += o.Points
	s.Events += o.Events
	s.WallSum += o.WallSum
	s.Elapsed += o.Elapsed
}

// Concurrency is the average number of sweep points in flight: the summed
// per-point wall clock over the elapsed real time. On an idle multicore
// machine this approximates the parallel speedup; under CPU contention it
// reflects oversubscription instead, so it is reported as concurrency, not
// speedup.
func (s Stats) Concurrency() float64 {
	if s.Elapsed <= 0 {
		return 1
	}
	return float64(s.WallSum) / float64(s.Elapsed)
}

// String renders the stats for a per-artifact summary line.
func (s Stats) String() string {
	return fmt.Sprintf("%d point(s), %d events, point-sum %v, elapsed %v, concurrency %.2fx",
		s.Points, s.Events, s.WallSum.Round(time.Millisecond),
		s.Elapsed.Round(time.Millisecond), s.Concurrency())
}

// accum collects the stats of every sweep since the last TakeStats, so
// cmd/ioexp can print a per-artifact summary without threading state
// through Experiment.Run.
var accum Stats

// accumSnap merges the metrics snapshots of every sweep point since the
// last TakeSnapshot — the cross-layer breakdown behind ioexp -metrics.
var accumSnap *sstats.Snapshot

// TakeStats returns the stats accumulated since the previous call and
// resets the accumulator.
func TakeStats() Stats {
	workerMu.Lock()
	defer workerMu.Unlock()
	out := accum
	accum = Stats{}
	return out
}

// TakeSnapshot returns the metrics snapshot merged over every sweep point
// since the previous call (nil if none carried metrics) and resets the
// accumulator. Points are merged in sweep input order, so the result is
// byte-identical at any worker count.
func TakeSnapshot() *sstats.Snapshot {
	workerMu.Lock()
	defer workerMu.Unlock()
	out := accumSnap
	accumSnap = nil
	return out
}

// EventCounter is implemented by job results that can report how many
// simulation events their run executed (core.Report does).
type EventCounter interface {
	EventCount() uint64
}

// SnapshotProvider is implemented by job results that carry a cross-layer
// metrics snapshot (core.Report does). The runner merges provided
// snapshots across sweep points.
type SnapshotProvider interface {
	StatsSnapshot() *sstats.Snapshot
}

// Map runs fn over jobs on a pool of workers goroutines and returns the
// results in input order, plus the sweep's stats. Each job should build
// and run its own independent simulation; nothing may be shared mutably
// across jobs. If any job fails, Map returns the error of the
// lowest-indexed failing job; jobs not yet started are skipped.
func Map[J, R any](jobs []J, workers int, fn func(J) (R, error)) ([]R, Stats, error) {
	start := time.Now()
	if workers < 1 {
		workers = 1
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	results := make([]R, len(jobs))
	errs := make([]error, len(jobs))
	stats := Stats{Sweeps: 1}
	if len(jobs) > 0 {
		var (
			mu     sync.Mutex // guards next, failed, stats
			next   int
			failed bool
			wg     sync.WaitGroup
		)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					mu.Lock()
					if failed || next >= len(jobs) {
						mu.Unlock()
						return
					}
					i := next
					next++
					mu.Unlock()

					t0 := time.Now()
					res, err := fn(jobs[i])
					wall := time.Since(t0)
					var events uint64
					if ec, ok := any(res).(EventCounter); ok && err == nil {
						events = ec.EventCount()
					}

					mu.Lock()
					results[i], errs[i] = res, err
					if err != nil {
						failed = true
					}
					stats.Points++
					stats.Events += events
					stats.WallSum += wall
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
	}
	stats.Elapsed = time.Since(start)

	// Merge per-point metric snapshots strictly in input order — NOT
	// completion order — so float sums, and therefore rendered metrics,
	// are identical at any worker count.
	var sweepSnap *sstats.Snapshot
	for i := range results {
		if errs[i] != nil {
			continue
		}
		if sp, ok := any(results[i]).(SnapshotProvider); ok {
			if snap := sp.StatsSnapshot(); snap != nil {
				if sweepSnap == nil {
					sweepSnap = &sstats.Snapshot{}
				}
				sweepSnap.Merge(snap)
			}
		}
	}

	workerMu.Lock()
	accum.Add(stats)
	if sweepSnap != nil {
		if accumSnap == nil {
			accumSnap = &sstats.Snapshot{}
		}
		accumSnap.Merge(sweepSnap)
	}
	workerMu.Unlock()

	for i, err := range errs {
		if err != nil {
			return results, stats, fmt.Errorf("sweep point %d: %w", i, err)
		}
	}
	return results, stats, nil
}

// sweep runs fn over jobs at the package default worker count — the form
// every experiment uses.
func sweep[J, R any](jobs []J, fn func(J) (R, error)) ([]R, error) {
	res, _, err := Map(jobs, Workers(), fn)
	return res, err
}
