// Command ioexp regenerates the paper's tables and figures from the
// simulator.
//
// Usage:
//
//	ioexp -exp table2            # one artifact, full scale
//	ioexp -exp all -scale quick  # everything, smoke-test sizes
//	ioexp -exp all -j 8          # sweep points on 8 workers
//	ioexp -exp fig1 -metrics     # append the cross-layer metrics table
//	ioexp -exp fig1 -metrics-json  # machine-readable metrics snapshot
//	ioexp -exp fig1 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Artifact ids: table2 table3 fig1 fig2 fig3 fig4 fig5 fig6 fig7 table4
// table5 (plus any registered ablations; -list shows all).
//
// Each artifact is a sweep over independent simulated runs; -j sets how
// many run concurrently (default: all CPUs). Artifact output goes to
// stdout and is byte-identical at any worker count; timing summaries go
// to stderr.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"pario/internal/exp"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole program behind a testable seam: argv in, exit code out.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ioexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		id      = fs.String("exp", "all", "experiment id, or 'all'")
		scale   = fs.String("scale", "full", "'full' (paper sizes) or 'quick' (smoke test)")
		list    = fs.Bool("list", false, "list experiment ids and exit")
		jobs    = fs.Int("j", runtime.NumCPU(), "concurrent sweep points per experiment")
		metrics = fs.Bool("metrics", false, "print each artifact's cross-layer metrics table")
		metJSON = fs.Bool("metrics-json", false, "print each artifact's metrics snapshot as JSON")
		cpuProf = fs.String("cpuprofile", "", "write a CPU profile to `file`")
		memProf = fs.String("memprofile", "", "write a heap profile to `file` on exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(stderr, "ioexp: cpuprofile: %v\n", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintf(stderr, "ioexp: cpuprofile: %v\n", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fmt.Fprintf(stderr, "ioexp: memprofile: %v\n", err)
			return 2
		}
		defer func() {
			runtime.GC() // materialize the final live-heap numbers
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "ioexp: memprofile: %v\n", err)
			}
			f.Close()
		}()
	}

	if *list {
		for _, e := range exp.All() {
			fmt.Fprintf(stdout, "%-8s %s\n", e.ID, e.Title)
		}
		return 0
	}

	var s exp.Scale
	switch *scale {
	case "full":
		s = exp.Full
	case "quick":
		s = exp.Quick
	default:
		fmt.Fprintf(stderr, "ioexp: unknown scale %q\n", *scale)
		return 2
	}
	exp.SetWorkers(*jobs)

	var totalStats exp.Stats
	var totalElapsed time.Duration
	runOne := func(e *exp.Experiment) int {
		start := time.Now()
		fmt.Fprintf(stdout, "== %s: %s [%s scale] ==\n", e.ID, e.Title, s)
		fmt.Fprintf(stdout, "paper: %s\n\n", e.Expect)
		if err := e.Run(stdout, s); err != nil {
			fmt.Fprintf(stderr, "ioexp: %s: %v\n", e.ID, err)
			return 1
		}
		elapsed := time.Since(start)
		st := exp.TakeStats()
		snap := exp.TakeSnapshot()
		if *metrics && snap != nil {
			fmt.Fprintf(stdout, "\n-- %s metrics --\n%s", e.ID, snap.Table())
		}
		if *metJSON && snap != nil {
			j, jerr := snap.JSON()
			if jerr != nil {
				fmt.Fprintf(stderr, "ioexp: %s: metrics json: %v\n", e.ID, jerr)
				return 1
			}
			fmt.Fprintf(stdout, "%s\n", j)
		}
		fmt.Fprintf(stderr, "[%s completed in %v — %s, j=%d]\n",
			e.ID, elapsed.Round(time.Millisecond), st, exp.Workers())
		totalStats.Add(st)
		totalElapsed += elapsed
		fmt.Fprintln(stdout)
		return 0
	}

	if *id == "all" {
		for _, e := range exp.All() {
			if code := runOne(e); code != 0 {
				return code
			}
		}
		fmt.Fprintf(stderr, "[all artifacts in %v — %s, j=%d]\n",
			totalElapsed.Round(time.Millisecond), totalStats, exp.Workers())
		return 0
	}
	e := exp.ByID(*id)
	if e == nil {
		fmt.Fprintf(stderr, "ioexp: unknown experiment %q (use -list)\n", *id)
		return 2
	}
	return runOne(e)
}
