package request

import (
	"context"
	"fmt"

	"pario/internal/apps/tracerun"
	"pario/internal/core"
	"pario/internal/roofline"
	"pario/internal/trace"
)

// Run simulates the run req names and returns its report. ctx bounds the
// run: cancellation tears the simulation down promptly and surfaces the
// context's error. Run is the single execution path shared by the daemon,
// cmd/iosim, cmd/iotrace, the paper artifacts and the app examples under
// examples/, so all produce the same report for the same request.
func Run(ctx context.Context, req Request) (core.Report, error) {
	return run(ctx, req, false)
}

// RunCaptured is Run with per-operation capture on: the report also
// carries every rank's data operations in Captured, ready for
// trace.FromCaptured. Capture changes what is recorded, never the
// simulation, so the rest of the report equals Run's.
func RunCaptured(ctx context.Context, req Request) (core.Report, error) {
	return run(ctx, req, true)
}

func run(ctx context.Context, req Request, capture bool) (core.Report, error) {
	var b binding
	c, err := resolve(req, &b)
	if err != nil {
		return core.Report{}, err
	}
	if b.setup == nil {
		// The request names the trace only by hash; resolving the bytes
		// needs a store (the daemon's upload registry, or a file loaded by
		// iosim -trace) — callers with the trace in hand use RunTrace.
		return core.Report{}, core.Classify("trace_unknown",
			fmt.Errorf("serve: trace %s is not available here", c.Trace))
	}
	spec := core.Spec{Machine: b.m, Procs: b.est.Procs, Faults: b.plan, Capture: capture}
	return core.Run(ctx, spec, func(sys *core.System) (core.Body, error) { return b.setup(&b, sys) })
}

// RunTrace runs an app-"trace" request against a resolved trace: the
// replay machine is the large Paragon with the request's I/O partition, the
// interface is req.Version, and req.Opt selects the prefetch-overlap
// replay. A trace with more ranks than the machine has compute nodes is
// refused with an error classified bad_request. The caller is responsible
// for tr matching req.Trace — the daemon resolves it from its upload store
// by hash.
func RunTrace(ctx context.Context, req Request, tr *trace.Trace) (core.Report, error) {
	var b binding
	c, err := resolve(req, &b)
	if err != nil {
		return core.Report{}, err
	}
	ranks := len(tr.Ranks)
	if ranks > b.m.NumCompute {
		// Only the trace knows its rank count, so resolve cannot refuse
		// this shape as it refuses procs; refuse it before anything runs.
		return core.Report{}, core.Classify("bad_request", fmt.Errorf(
			"serve: trace of %d ranks exceeds the %d compute nodes of %s", ranks, b.m.NumCompute, b.m.Name))
	}
	spec := core.Spec{Machine: b.m, Procs: ranks, Faults: b.plan}
	return core.Run(ctx, spec, tracerun.Config{Trace: tr, Interface: c.Version, Opt: c.Opt}.Setup)
}

// Estimate prices a request analytically against the machine it resolves
// to — the one its exact run simulates. A request the model cannot price
// (a trace replay, a stripe unit or version the estimator does not model,
// a fault plan) is refused with an error classified estimate_unsupported,
// never answered with the estimate of a neighbouring configuration.
func Estimate(req Request) (*roofline.Estimate, error) {
	var b binding
	if _, err := resolve(req, &b); err != nil {
		return nil, err
	}
	if b.unpriced != "" {
		return nil, core.Classify("estimate_unsupported",
			fmt.Errorf("serve: estimate mode does not model %s", b.unpriced))
	}
	if b.plan != nil {
		return nil, core.Classify("estimate_unsupported", roofline.ErrUnsupported)
	}
	return roofline.NewModel(b.m).Estimate(b.est)
}
