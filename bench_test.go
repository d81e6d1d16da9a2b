// Benchmarks: one per table and figure of the paper's evaluation section,
// each regenerating its artifact through the internal/exp harness, plus
// ablation benches for the design choices called out in DESIGN.md §5.
//
// Run the full paper-scale suite with
//
//	go test -bench=. -benchmem
//
// or a fast smoke pass with -short (Quick-scale inputs; shapes preserved,
// absolute numbers not comparable to the paper).
package pario_test

import (
	"io"
	"runtime"
	"strconv"
	"testing"

	"pario/internal/apps/btio"
	"pario/internal/apps/fft"
	"pario/internal/apps/scf"
	"pario/internal/core"
	"pario/internal/exp"
	"pario/internal/machine"
)

// benchScale picks the experiment scale from -short.
func benchScale() exp.Scale {
	if testing.Short() {
		return exp.Quick
	}
	return exp.Full
}

// benchExperiment runs one registered experiment per iteration. Sweep
// points run through the parallel runner on all CPUs, so these benches
// measure the path cmd/ioexp takes by default.
func benchExperiment(b *testing.B, id string) {
	e := exp.ByID(id)
	if e == nil {
		b.Fatalf("unknown experiment %q", id)
	}
	prev := exp.SetWorkers(runtime.NumCPU())
	defer exp.SetWorkers(prev)
	s := benchScale()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard, s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepWorkers pits the sequential sweep against the parallel one
// on a many-point artifact, so the runner's scaling shows up directly in
// the bench output (compare j=1 with j=NumCPU).
func BenchmarkSweepWorkers(b *testing.B) {
	counts := []int{1, runtime.NumCPU()}
	if runtime.NumCPU() == 1 {
		counts = counts[:1]
	}
	for _, j := range counts {
		b.Run("j="+strconv.Itoa(j), func(b *testing.B) {
			prev := exp.SetWorkers(j)
			defer exp.SetWorkers(prev)
			e := exp.ByID("fig1")
			for i := 0; i < b.N; i++ {
				if err := e.Run(io.Discard, benchScale()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// One benchmark per paper artifact.

func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkFig1(b *testing.B)   { benchExperiment(b, "fig1") }
func BenchmarkFig2(b *testing.B)   { benchExperiment(b, "fig2") }
func BenchmarkFig3(b *testing.B)   { benchExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)   { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)   { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)   { benchExperiment(b, "fig7") }
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }
func BenchmarkTable5(b *testing.B) { benchExperiment(b, "table5") }

// BenchmarkDegraded regenerates the fault-injection artifact, so the gate
// covers runs under a resilience policy: retries, timeouts and fail-stops.
func BenchmarkDegraded(b *testing.B) { benchExperiment(b, "degraded") }

// Ablation benches (DESIGN.md §5). Each reports the simulated quantity of
// interest as a custom metric so the effect is visible in the bench output.

// BenchmarkAblationPrefetchDepth sweeps the SCF read-phase prefetch depth.
func BenchmarkAblationPrefetchDepth(b *testing.B) {
	m, err := machine.ParagonLarge(12)
	if err != nil {
		b.Fatal(err)
	}
	in := scf.Input{Name: "bench", N: 64}
	if !testing.Short() {
		in = scf.Medium
	}
	for _, depth := range []int{1, 2, 4} {
		b.Run(benchName("depth", depth), func(b *testing.B) {
			var io float64
			for i := 0; i < b.N; i++ {
				cfg := scf.Config11{Input: in, Version: scf.PassionPrefetch, PrefetchDepth: depth}
				rep, err := core.Run(nil, core.Spec{Machine: m, Procs: 4}, cfg.Setup)
				if err != nil {
					b.Fatal(err)
				}
				io = rep.IOMaxSec
			}
			b.ReportMetric(io, "simIOsec")
		})
	}
}

// BenchmarkAblationStripeUnit sweeps the PFS stripe unit on the SCF
// workload (generalizing Figure 1's tuple VI).
func BenchmarkAblationStripeUnit(b *testing.B) {
	m, err := machine.ParagonLarge(12)
	if err != nil {
		b.Fatal(err)
	}
	in := scf.Input{Name: "bench", N: 64}
	if !testing.Short() {
		in = scf.Medium
	}
	for _, su := range []int64{16, 64, 256} {
		b.Run(benchName("suKB", int(su)), func(b *testing.B) {
			var io float64
			for i := 0; i < b.N; i++ {
				cfg := scf.Config11{Input: in, Version: scf.Passion, StripeUnitKB: su}
				rep, err := core.Run(nil, core.Spec{Machine: m, Procs: 4}, cfg.Setup)
				if err != nil {
					b.Fatal(err)
				}
				io = rep.IOMaxSec
			}
			b.ReportMetric(io, "simIOsec")
		})
	}
}

// BenchmarkAblationWriteBehind toggles the I/O-node write-behind cache on
// the write-dominant BTIO workload.
func BenchmarkAblationWriteBehind(b *testing.B) {
	cls := btio.Class{Name: "bench", N: 32, Dumps: 5}
	if !testing.Short() {
		cls = btio.Class{Name: "bench", N: 64, Dumps: 10}
	}
	for _, cache := range []bool{true, false} {
		name := "cache=on"
		if !cache {
			name = "cache=off"
		}
		b.Run(name, func(b *testing.B) {
			var io float64
			for i := 0; i < b.N; i++ {
				m, err := machine.SP2()
				if err != nil {
					b.Fatal(err)
				}
				if !cache {
					m.Node.CacheBytes = 0
				}
				rep, err := core.Run(nil, core.Spec{Machine: m, Procs: 16}, btio.Config{Class: cls}.Setup)
				if err != nil {
					b.Fatal(err)
				}
				io = rep.IOMaxSec
			}
			b.ReportMetric(io, "simIOsec")
		})
	}
}

// BenchmarkAblationSeekPenalty scales the disk seek cost on the
// seek-dominated unoptimized FFT transpose.
func BenchmarkAblationSeekPenalty(b *testing.B) {
	n, buf := int64(512), int64(512<<10)
	if !testing.Short() {
		n, buf = 2048, 4<<20
	}
	for _, scale := range []float64{0.5, 1, 2} {
		b.Run(benchName("seekX100", int(scale*100)), func(b *testing.B) {
			var io float64
			for i := 0; i < b.N; i++ {
				m, err := machine.ParagonSmall(2)
				if err != nil {
					b.Fatal(err)
				}
				m.Node.Disk.SeekMin *= scale
				m.Node.Disk.SeekMax *= scale
				rep, err := core.Run(nil, core.Spec{Machine: m, Procs: 4}, fft.Config{N: n, BufferBytes: buf}.Setup)
				if err != nil {
					b.Fatal(err)
				}
				io = rep.IOMaxSec
			}
			b.ReportMetric(io, "simIOsec")
		})
	}
}

// BenchmarkAblationBalancedFiles toggles SCF 3.0's integral-file
// balancing (release 3.0's "within 10% or 1 MB" feature).
func BenchmarkAblationBalancedFiles(b *testing.B) {
	m, err := machine.ParagonLarge(16)
	if err != nil {
		b.Fatal(err)
	}
	in := scf.Input{Name: "bench", N: 64}
	if !testing.Short() {
		in = scf.Medium
	}
	for _, bal := range []bool{true, false} {
		name := "balance=on"
		if !bal {
			name = "balance=off"
		}
		b.Run(name, func(b *testing.B) {
			var execSec float64
			for i := 0; i < b.N; i++ {
				rep, err := core.Run(nil, core.Spec{Machine: m, Procs: 8}, scf.Config30{Input: in, CachedPct: 100, Balance: bal}.Setup)
				if err != nil {
					b.Fatal(err)
				}
				execSec = rep.ExecSec
			}
			b.ReportMetric(execSec, "simExecSec")
		})
	}
}

func benchName(k string, v int) string {
	return k + "=" + strconv.Itoa(v)
}
