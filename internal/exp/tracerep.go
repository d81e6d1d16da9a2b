package exp

import (
	"fmt"
	"io"

	"pario/internal/apps/fft"
	"pario/internal/apps/tracerun"
	"pario/internal/core"
	"pario/internal/machine"
	"pario/internal/trace"
	"pario/internal/workload"
)

// tracerep is the trace round-trip artifact: a trace captured from a real
// app run, an iogen-spec workload, and the three adversarial generators,
// each replayed under every interface and with/without the optimized
// (prefetch-overlap) replay. Its golden file is the round-trip identity
// contract — capture, encode, decode and replay are all deterministic, so
// the whole matrix is byte-stable at any worker count.

func init() {
	register(&Experiment{
		ID:    "tracerep",
		Title: "Trace replay: captured + adversarial traces under interface x optimization",
		Expect: "replay is deterministic (decode(encode(t)) replays identically); prefetch overlap " +
			"only pays off on read streams with compute gaps; PASSION's per-call seek discipline " +
			"taxes scattered small requests; append storms and checkpoint bursts ride write-behind",
		Run: func(w io.Writer, s Scale) error {
			traces, err := tracerepTraces(s)
			if err != nil {
				return err
			}
			m, err := machine.ParagonLarge(12)
			if err != nil {
				return err
			}
			ifaces := []string{"fortran", "passion", "native"}
			type job struct {
				t     *trace.Trace
				iface string
				opt   bool
			}
			var jobs []job
			for _, t := range traces {
				// Round-trip before replaying: the golden pins that the
				// decoded copy, not the in-memory original, is what runs.
				rt, err := trace.Decode(t.EncodeBinary())
				if err != nil {
					return fmt.Errorf("round-trip %s: %w", t.Label, err)
				}
				if rt.Hash() != t.Hash() {
					return fmt.Errorf("round-trip %s: hash changed", t.Label)
				}
				for _, iface := range ifaces {
					jobs = append(jobs, job{rt, iface, false}, job{rt, iface, true})
				}
			}
			reps, err := sweep(jobs, func(j job) (core.Report, error) {
				return core.Run(nil, core.Spec{Machine: m, Procs: len(j.t.Ranks)},
					tracerun.Config{Trace: j.t, Interface: j.iface, Opt: j.opt}.Setup)
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-24s %-8s | %12s %12s | %12s %12s | %8s\n",
				"trace", "iface", "exec", "opt exec", "I/O", "opt I/O", "hash")
			for i, t := range traces {
				for k, iface := range ifaces {
					un, opt := reps[i*2*len(ifaces)+2*k], reps[i*2*len(ifaces)+2*k+1]
					fmt.Fprintf(w, "%-24s %-8s | %12s %12s | %12s %12s | %8s\n",
						t.Label, iface, hms(un.ExecSec), hms(opt.ExecSec),
						hms(un.IOMaxSec), hms(opt.IOMaxSec), t.Hash()[:8])
				}
			}
			return nil
		},
	})
}

// tracerepTraces builds the artifact's trace set: one captured from a real
// FFT run, one emitted from a workload spec, and the three adversaries.
func tracerepTraces(s Scale) ([]*trace.Trace, error) {
	n, buf := int64(2048), int64(4<<20)
	ranks, events := 8, 256
	if s == Quick {
		n, buf = 256, 512<<10
		ranks, events = 4, 48
	}
	m, err := machine.ParagonSmall(2)
	if err != nil {
		return nil, err
	}
	rep, err := core.Run(nil, core.Spec{Machine: m, Procs: ranks, Capture: true},
		fft.Config{N: n, BufferBytes: buf}.Setup)
	if err != nil {
		return nil, err
	}
	captured := trace.FromCaptured(rep.Captured, "native", "fft")
	if err := captured.Validate(); err != nil {
		return nil, err
	}

	spec := workload.Spec{
		Pattern:      workload.Hotspot,
		TotalBytes:   int64(events) * 16 << 10,
		RequestBytes: 16 << 10,
		WriteFrac:    0.25,
		Seed:         7,
	}
	emitted, err := spec.Trace(ranks, 100e-6)
	if err != nil {
		return nil, err
	}

	out := []*trace.Trace{captured, emitted}
	for _, name := range trace.Adversaries {
		t := trace.Generate(name, ranks, events, 42)
		if t == nil {
			return nil, fmt.Errorf("tracerep: unknown adversary %q", name)
		}
		out = append(out, t)
	}
	return out, nil
}
