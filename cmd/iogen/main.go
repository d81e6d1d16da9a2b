// Command iogen generates a synthetic I/O workload and replays it against
// a simulated machine under each I/O interface — a microbenchmark driver
// for the machine models. With -emit-trace it instead writes the workload
// as a replayable trace file (see internal/trace) for pariod, iosim
// -trace, or the tracerep experiment; -adversary swaps the pattern
// generator for one of the adversarial trace shapes.
//
// Usage:
//
//	iogen -pattern strided -total 64M -req 4K -stride 60K -procs 8
//	iogen -pattern random -total 16M -req 64K -writefrac 0.5
//	iogen -pattern hotspot -total 16M -req 16K -emit-trace hot.ptrt
//	iogen -adversary appendstorm -procs 8 -events 256 -emit-trace storm.ptrt
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"pario/internal/machine"
	"pario/internal/pio"
	"pario/internal/trace"
	"pario/internal/workload"
)

func main() {
	var (
		pattern   = flag.String("pattern", "sequential", "sequential | strided | random | hotspot")
		total     = flag.String("total", "16M", "total volume (K/M/G suffixes)")
		req       = flag.String("req", "64K", "request size")
		stride    = flag.String("stride", "0", "gap between strided requests")
		writeFrac = flag.Float64("writefrac", 0, "fraction of writes")
		procs     = flag.Int("procs", 4, "processes replaying the stream concurrently")
		ionodes   = flag.Int("ionodes", 12, "Paragon I/O partition: 12, 16 or 64")
		seed      = flag.Uint64("seed", 1, "generator seed")
		emitTrace = flag.String("emit-trace", "", "write the workload as a trace file instead of replaying")
		adversary = flag.String("adversary", "", "adversarial generator: "+strings.Join(trace.Adversaries, " | "))
		events    = flag.Int("events", 128, "per-rank event count for -adversary")
		compute   = flag.Float64("compute", 100e-6, "per-event compute gap in seconds for -emit-trace")
	)
	flag.Parse()

	if *adversary != "" {
		if *emitTrace == "" {
			fmt.Fprintf(os.Stderr, "iogen: -adversary needs -emit-trace FILE\n")
			os.Exit(2)
		}
		t := trace.Generate(*adversary, *procs, *events, *seed)
		if t == nil {
			fmt.Fprintf(os.Stderr, "iogen: unknown adversary %q (%s)\n",
				*adversary, strings.Join(trace.Adversaries, " | "))
			os.Exit(2)
		}
		writeTrace(*emitTrace, t)
		return
	}

	pat, ok := map[string]workload.Pattern{
		"sequential": workload.Sequential,
		"strided":    workload.Strided,
		"random":     workload.Random,
		"hotspot":    workload.Hotspot,
	}[strings.ToLower(*pattern)]
	if !ok {
		fmt.Fprintf(os.Stderr, "iogen: unknown pattern %q\n", *pattern)
		os.Exit(2)
	}
	spec := workload.Spec{
		Pattern:      pat,
		TotalBytes:   parseSize(*total),
		RequestBytes: parseSize(*req),
		Stride:       parseSize(*stride),
		WriteFrac:    *writeFrac,
		Seed:         *seed,
	}
	if *emitTrace != "" {
		t, err := spec.Trace(*procs, *compute)
		if err != nil {
			fmt.Fprintf(os.Stderr, "iogen: %v\n", err)
			os.Exit(1)
		}
		writeTrace(*emitTrace, t)
		return
	}
	reqs, err := spec.Requests()
	if err != nil {
		fmt.Fprintf(os.Stderr, "iogen: %v\n", err)
		os.Exit(1)
	}
	cfg, err := machine.ParagonLarge(*ionodes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "iogen: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("workload: %s, %d requests of <=%s, %.0f%% writes, %d procs on %s\n\n",
		pat, len(reqs), *req, 100**writeFrac, *procs, cfg.Name)
	fmt.Printf("%-12s %12s %14s %14s\n", "interface", "exec", "per-proc I/O", "app MB/s")
	for _, iface := range []pio.ClientParams{cfg.Fortran, cfg.Passion, cfg.Native} {
		rep, err := workload.Replay(cfg, iface, *procs, reqs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "iogen: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%-12s %11.2fs %13.2fs %14.2f\n",
			iface.Name, rep.ExecSec, rep.IOMaxSec, rep.BandwidthMBs())
	}
}

// writeTrace writes t's canonical text encoding and reports the content
// hash a server would register the upload under.
func writeTrace(path string, t *trace.Trace) {
	if err := os.WriteFile(path, t.EncodeText(), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "iogen: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s: %d ranks, %d events, %d bytes of I/O\ntrace:%s\n",
		path, len(t.Ranks), t.Events(), t.Bytes(), t.Hash())
}

// parseSize parses 64, 64K, 4M, 1G via the shared hardened parser;
// malformed, negative and overflowing sizes exit 2 with a clear message.
func parseSize(s string) int64 {
	v, err := workload.ParseSize(s)
	if err != nil {
		fmt.Fprintf(os.Stderr, "iogen: %v\n", err)
		os.Exit(2)
	}
	return v
}
