// Command perfbench is pario's end-to-end benchmark. One invocation runs
// one named workload for a fixed window against the public Go API, checks
// every output it receives, and prints the end-to-end metrics by name and
// unit; with --trace 1 it records a span around each public call it makes
// and prints the per-layer metrics derived from them instead. The last
// line of standard output is always one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root (it reads the artifact goldens from
// internal/exp/testdata/golden and writes only under .bench_build/):
//
//	bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 15 --trace 0
//
// See README.md beside this file for what each workload is for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloadOrder is every workload, in the order companion runs use.
var workloadOrder = []string{"artifacts", "serve-hot", "serve-cold"}

var workloads = map[string]func(e *env, seconds float64) (*outcome, error){
	"artifacts":  runArtifacts,
	"serve-hot":  runHot,
	"serve-cold": runCold,
}

// companionSeconds is the window of the short runs a traced run adds for
// the other workloads, so that every traced run reports every layer.
const companionSeconds = 1.5

// env is what a workload run needs besides its window.
type env struct {
	seed    uint64
	tr      *tracer // nil when untraced
	workDir string  // scratch space for cache directories
	procs   int     // nproc: sweep workers, server workers
	clients int     // closed-loop client goroutines (at most nproc)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// shown is one end-to-end metric under the workload-specific name it is
// documented by (hot_p99_us, sweep_points_s, ...).
type shown struct {
	name string
	m    metric
}

// outcome is what one workload run measured and checked.
type outcome struct {
	setup      []float64 // seconds, one per set-up repetition
	p50Ms      float64   // median operation latency
	tailMs     float64   // the workload's tail percentile (see README.md)
	throughput float64   // operations per second
	display    []shown

	attempted, failed int64
	problems          []string

	layer map[string]metric // per-layer metrics (traced runs only)
}

// fail counts one failed operation and keeps its reason (the first few).
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) setLayer(name string, v float64) {
	if o.layer == nil {
		o.layer = make(map[string]metric)
	}
	o.layer[name] = metric{Value: v, Unit: layerUnit(name)}
}

// timeSetup runs setup reps times, tearing down all but the last, and
// records each duration on o; setup_s is their median.
func timeSetup[S any](o *outcome, reps int, setup func() (S, error), teardown func(S)) (S, error) {
	var st S
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		var err error
		st, err = setup()
		if err != nil {
			return st, err
		}
		o.setup = append(o.setup, time.Since(t0).Seconds())
		if i < reps-1 {
			teardown(st)
		}
	}
	return st, nil
}

// writeSpans dumps t under .bench_build/spans/<name>.tsv. Losing the dump
// loses no metric, so a failure is only reported.
func writeSpans(stderr io.Writer, t *tracer, name string) {
	if err := t.writeTSV(filepath.Join(".bench_build", "spans", name+".tsv")); err != nil {
		fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadOrder, ", "))
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measurement window in seconds")
	traceFlag := fs.Int("trace", 0, "1 records spans and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadOrder, "|"))
		return 2
	}
	if _, err := os.Stat(goldenDir); err != nil {
		fmt.Fprintf(stderr, "perfbench: run from the repository root: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	workDir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(workDir)

	e := &env{seed: *seed, workDir: workDir, procs: runtime.NumCPU(), clients: min(2, runtime.NumCPU())}
	if *traceFlag == 1 {
		e.tr = newTracer()
	}
	out, err := fn(e, *seconds)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	rss := peakRSSMB()

	fmt.Fprintf(stdout, "workload %s  seed %d  window %gs  trace %d  nproc %d\n", *workload, *seed, *seconds, *traceFlag, e.procs)
	fmt.Fprintf(stdout, "  %-28s %14.4f %s\n", "setup_s", median(out.setup), "s")
	fmt.Fprintf(stdout, "  %-28s %14.1f %s\n", "peak_rss_mb", rss, "MB")
	fmt.Fprintf(stdout, "  %-28s %14.6f %s  (%d of %d)\n", "failed_frac", float64(out.failed)/float64(max(out.attempted, 1)), "ratio", out.failed, out.attempted)
	for _, s := range out.display {
		fmt.Fprintf(stdout, "  %-28s %14.4f %s\n", s.name, s.m.Value, s.m.Unit)
	}

	metrics := map[string]metric{
		"setup_s":          {median(out.setup), "s"},
		"peak_rss_mb":      {rss, "MB"},
		"p50_ms":           {out.p50Ms, "ms"},
		"tail_ms":          {out.tailMs, "ms"},
		"throughput_per_s": {out.throughput, "1/s"},
	}
	attempted, failed, problems := out.attempted, out.failed, out.problems
	if e.tr != nil {
		// Every traced run reports every layer: layers this workload does
		// not drive are measured by a short companion run of the workload
		// that does.
		layer := out.layer
		if layer == nil {
			layer = map[string]metric{}
		}
		layer["bench.traced_p50_ms"] = metric{out.p50Ms, "ms"}
		layer["bench.traced_throughput_per_s"] = metric{out.throughput, "1/s"}
		for _, w := range workloadOrder {
			if w == *workload {
				continue
			}
			ce := &env{seed: e.seed, tr: newTracer(), workDir: workDir, procs: e.procs, clients: e.clients}
			comp, err := workloads[w](ce, companionSeconds)
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: companion %s: %v\n", w, err)
				return 1
			}
			writeSpans(stderr, ce.tr, fmt.Sprintf("%s-seed%d-companion-%s", *workload, *seed, w))
			attempted += comp.attempted
			failed += comp.failed
			problems = append(problems, comp.problems...)
			for k, v := range comp.layer {
				if _, ok := layer[k]; !ok {
					layer[k] = v
				}
			}
		}
		writeSpans(stderr, e.tr, fmt.Sprintf("%s-seed%d", *workload, *seed))
		var missing []string
		for _, l := range perLayer {
			if _, ok := layer[l.name]; !ok {
				missing = append(missing, l.name)
			}
		}
		if len(missing) > 0 {
			fmt.Fprintf(stderr, "perfbench: traced run produced no %s\n", strings.Join(missing, ", "))
			return 1
		}
		names := make([]string, 0, len(layer))
		for k := range layer {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(stdout, "  %-28s %14.4f %s\n", k, layer[k].Value, layer[k].Unit)
		}
		metrics = layer
	}
	for _, p := range problems {
		fmt.Fprintf(stdout, "  FAILED: %s\n", p)
	}

	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0 && len(problems) == 0, max(attempted, 1), failed, metrics}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}
