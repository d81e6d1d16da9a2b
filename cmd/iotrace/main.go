// Command iotrace prints the Pablo-style per-operation I/O summary (the
// format of the paper's Tables 2-3) for an application configuration — the
// instrumentation view of a run.
//
// Usage:
//
//	iotrace -app scf11 -procs 4 -input LARGE -version passion
//	iotrace -app scf11 -opt          # -opt selects the prefetch version
//	iotrace -app btio -procs 16 -opt
//	iotrace -app fft -procs 4 -capture fft.ptrt
//
// The run is resolved and simulated through the same path as iosim and
// pariod (request.Canonicalize, request.Run), with every app's paper
// defaults for the parameters iotrace has no flag for.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"pario/internal/core"
	"pario/internal/request"
	"pario/internal/trace"
)

func main() {
	var (
		app     = flag.String("app", "scf11", "scf11 | scf30 | fft | btio | ast")
		procs   = flag.Int("procs", 4, "compute processes")
		input   = flag.String("input", "MEDIUM", "scf input: SMALL | MEDIUM | LARGE")
		version = flag.String("version", "original", "scf11: original | passion | prefetch | direct")
		opt     = flag.Bool("opt", false, "apply the application's optimization (scf11: the prefetch version)")
		capture = flag.String("capture", "", "also write the run's captured I/O trace to FILE")
	)
	flag.Parse()

	req, rep, err := run(request.Request{App: *app, Procs: *procs, Input: *input, Version: *version, Opt: *opt}, *capture != "")
	if err != nil {
		fmt.Fprintf(os.Stderr, "iotrace: %v\n", err)
		os.Exit(1)
	}
	if *capture != "" {
		t := trace.FromCaptured(rep.Captured, captureIface(req), req.App)
		if err := t.Validate(); err != nil {
			fmt.Fprintf(os.Stderr, "iotrace: captured trace: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*capture, t.EncodeText(), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "iotrace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("captured %d events across %d ranks to %s\ntrace:%s\n\n",
			t.Events(), len(t.Ranks), *capture, t.Hash())
	}
	fmt.Printf("%s, %d processes — aggregated I/O operation summary\n", rep.Machine, rep.Procs)
	fmt.Printf("(percentages against exec time aggregated across processes, as in the paper)\n\n")
	fmt.Print(rep.Trace.Table(rep.ExecSec * float64(rep.Procs)))
	fmt.Printf("\nper-process I/O time: %.2f s; exec: %.2f s; bandwidth: %.2f MB/s; "+
		"I/O imbalance (max/mean): %.2f; busiest I/O node at %.0f%% of exec\n\n",
		rep.IOMaxSec, rep.ExecSec, rep.BandwidthMBs(), rep.IOImbalance(),
		100*rep.MaxIONodeUtil())
	for _, op := range []trace.Op{trace.Read, trace.Write} {
		if rep.Trace.Get(op).Count > 0 {
			fmt.Println(rep.Trace.HistogramString(op))
		}
	}
}

// captureIface picks the trace's replay-interface hint from the app's own
// interface: SCF 1.1's original version is Fortran-style, its optimized
// versions and SCF 3.0 PASSION-style; everything else maps onto the native
// client.
func captureIface(req request.Request) string {
	switch {
	case req.App == "scf11" && req.Version == "original":
		return "fortran"
	case req.App == "scf11" || req.App == "scf30":
		return "passion"
	}
	return "native"
}

// run canonicalizes req and simulates it through the service's shared
// path, capturing per-operation logs when asked, and returns the canonical
// request with the report.
func run(req request.Request, capture bool) (request.Request, core.Report, error) {
	c, err := request.Canonicalize(req)
	if err != nil {
		return request.Request{}, core.Report{}, err
	}
	runner := request.Run
	if capture {
		runner = request.RunCaptured
	}
	rep, err := runner(context.Background(), c)
	return c, rep, err
}
