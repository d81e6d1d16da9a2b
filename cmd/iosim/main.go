// Command iosim runs a single application configuration on a simulated
// machine and prints its report: the everyday driver for exploring the
// parameter space outside the paper's fixed sweeps.
//
// Usage:
//
//	iosim -app fft -procs 8 -ionodes 2 -opt
//	iosim -app scf11 -procs 4 -input LARGE -version passion
//	iosim -app scf30 -procs 32 -cached 90
//	iosim -app btio -procs 16 -class A -opt
//	iosim -app ast -procs 32 -ionodes 64 -opt
//	iosim -app fft -procs 8 -json        # the pariod wire encoding
//	iosim -app ast -procs 16 -faults "disk:0:degrade=8@t=0.5s..2s;retry=4"
//	iosim -app btio -procs 64 -opt -estimate   # analytic roofline, no simulation
//	iosim -trace fft.ptrt -version passion -opt   # replay a captured trace file
//
// -json emits the exact request/report encoding the pariod service serves
// (one shared codec in internal/serve), so CLI and server outputs are
// byte-identical for the same configuration.
//
// -estimate answers the analytic roofline prediction instead of running the
// simulation: predicted elapsed time, per-layer bytes and the binding
// bottleneck, in microseconds. With -json it emits the exact body
// pariod's /run?mode=estimate serves.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"pario/internal/core"
	"pario/internal/serve"
	"pario/internal/trace"
)

func main() {
	var (
		app      = flag.String("app", "", "scf11 | scf30 | fft | btio | ast")
		procs    = flag.Int("procs", 4, "compute processes")
		ionodes  = flag.Int("ionodes", 0, "I/O nodes (0 = app's paper default)")
		opt      = flag.Bool("opt", false, "apply the application's optimization")
		input    = flag.String("input", "MEDIUM", "scf input: SMALL | MEDIUM | LARGE")
		version  = flag.String("version", "original", "scf11 version: original | passion | prefetch")
		cached   = flag.Int("cached", 90, "scf30: % of integrals cached on disk (0 selects the default)")
		class    = flag.String("class", "A", "btio class: A | B")
		faults   = flag.String("faults", "", `fault plan, e.g. "disk:0:degrade=8@t=1.5s..4s;retry=4" (see internal/fault)`)
		jsonFlag = flag.Bool("json", false, "emit the pariod service's JSON encoding instead of the text report")
		estimate = flag.Bool("estimate", false, "answer the analytic roofline estimate instead of simulating")
		traceIn  = flag.String("trace", "", "replay a trace file (app becomes \"trace\"; -version picks fortran | passion | native)")
	)
	flag.Parse()

	if *estimate {
		os.Exit(runEstimate(*app, *procs, *ionodes, *opt, *input, *version, *cached, *class, *faults, *jsonFlag))
	}

	var req serve.Request
	var rep core.Report
	var err error
	if *traceIn != "" {
		versionSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "version" {
				versionSet = true
			}
		})
		v := ""
		if versionSet {
			v = *version
		}
		req, rep, err = runTrace(*traceIn, v, *ionodes, *opt, *faults)
	} else {
		req, rep, err = run(*app, *procs, *ionodes, *opt, *input, *version, *cached, *class, *faults)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "iosim: %v (%s)\n", err, core.ErrorClass(err))
		os.Exit(1)
	}
	if *jsonFlag {
		body, err := serve.Encode(req, rep)
		if err != nil {
			fmt.Fprintf(os.Stderr, "iosim: %v\n", err)
			os.Exit(1)
		}
		os.Stdout.Write(body)
		return
	}
	fmt.Printf("machine:     %s\n", rep.Machine)
	fmt.Printf("processes:   %d (on %d I/O nodes)\n", rep.Procs, rep.IONodes)
	fmt.Printf("exec time:   %.2f s\n", rep.ExecSec)
	fmt.Printf("I/O time:    %.2f s per process (%.1f%% of exec)\n", rep.IOMaxSec, rep.IOPctOfExec())
	fmt.Printf("volume:      %.1f MB read, %.1f MB written\n",
		float64(rep.BytesRead)/1e6, float64(rep.BytesWritten)/1e6)
	fmt.Printf("bandwidth:   %.2f MB/s\n\n", rep.BandwidthMBs())
	fmt.Println(rep.Trace.Table(rep.ExecSec * float64(rep.Procs)))
}

// runEstimate prices the flag tuple analytically through the same
// canonicalize → estimate path pariod's /run?mode=estimate takes.
func runEstimate(app string, procs, ionodes int, opt bool, input, version string, cached int, class, faults string, jsonOut bool) int {
	req, err := serve.Canonicalize(serve.Request{
		App:       app,
		Procs:     procs,
		IONodes:   ionodes,
		Opt:       opt,
		Input:     input,
		Version:   version,
		CachedPct: cached,
		Class:     class,
		Faults:    faults,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "iosim: %v (%s)\n", err, core.ErrorClass(err))
		return 1
	}
	est, err := serve.EstimateFor(req)
	if err != nil {
		fmt.Fprintf(os.Stderr, "iosim: %v (%s)\n", err, core.ErrorClass(err))
		return 1
	}
	if jsonOut {
		body, err := serve.EncodeEstimate(req, est)
		if err != nil {
			fmt.Fprintf(os.Stderr, "iosim: %v\n", err)
			return 1
		}
		os.Stdout.Write(body)
		return 0
	}
	fmt.Printf("machine:     %s (analytic estimate)\n", est.Machine)
	fmt.Printf("processes:   %d (on %d I/O nodes)\n", est.Procs, est.IONodes)
	fmt.Printf("predicted:   %.2f s elapsed (%.2f s compute, %.2f s I/O)\n",
		est.ElapsedSec, est.ComputeSec, est.IOSec)
	fmt.Printf("bottleneck:  %s\n", est.Bottleneck)
	fmt.Printf("ceilings:    overhead %.2f s, seek %.2f s, disk %.2f s, link %.2f s\n",
		est.OverheadSec, est.SeekSec, est.DiskSec, est.LinkSec)
	fmt.Printf("volume:      %.1f MB client, %.1f MB link, %.1f MB disk\n",
		float64(est.ClientBytes)/1e6, float64(est.LinkBytes)/1e6, float64(est.DiskBytes)/1e6)
	fmt.Printf("bandwidth:   %.2f MB/s\n\n", est.BandwidthMBs)
	for _, ph := range est.Phases {
		over := ""
		if ph.Overlapped {
			over = " (overlapped)"
		}
		fmt.Printf("  %-12s %10.2f s  %s%s\n", ph.Name, ph.ElapsedSec, ph.Bound, over)
	}
	return 0
}

// runTrace loads a trace file and replays it through the service's shared
// trace path — the same canonicalized request and execution pariod serves
// for an uploaded copy of the file, so the reports are byte-identical.
// version empty defers to the trace's own interface hint (native when the
// hint is absent or names no replayable client).
func runTrace(path, version string, ionodes int, opt bool, faults string) (serve.Request, core.Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return serve.Request{}, core.Report{}, err
	}
	t, err := trace.Decode(data)
	if err != nil {
		return serve.Request{}, core.Report{}, err
	}
	if version == "" {
		switch t.Iface {
		case "fortran", "passion", "native":
			version = t.Iface
		}
	}
	req, err := serve.Canonicalize(serve.Request{
		App: "trace", Trace: t.Hash(), IONodes: ionodes, Opt: opt,
		Version: version, Faults: faults,
	})
	if err != nil {
		return serve.Request{}, core.Report{}, err
	}
	rep, err := serve.ExecuteTrace(context.Background(), req, 0, t)
	if err != nil {
		return serve.Request{}, core.Report{}, err
	}
	return req, rep, nil
}

// run canonicalizes the flag tuple into a serve.Request and executes it
// through the service's shared path, so iosim answers exactly what pariod
// would serve for the same configuration.
func run(app string, procs, ionodes int, opt bool, input, version string, cached int, class, faults string) (serve.Request, core.Report, error) {
	req, err := serve.Canonicalize(serve.Request{
		App:       app,
		Procs:     procs,
		IONodes:   ionodes,
		Opt:       opt,
		Input:     input,
		Version:   version,
		CachedPct: cached,
		Class:     class,
		Faults:    faults,
	})
	if err != nil {
		return serve.Request{}, core.Report{}, err
	}
	rep, err := serve.Execute(context.Background(), req)
	if err != nil {
		return serve.Request{}, core.Report{}, err
	}
	return req, rep, nil
}
