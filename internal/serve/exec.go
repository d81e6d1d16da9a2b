package serve

import (
	"context"
	"fmt"

	"pario/internal/apps/tracerun"
	"pario/internal/core"
	"pario/internal/trace"
)

// Execute runs the simulation a canonicalized request names and returns its
// report. ctx bounds the run: cancellation tears the simulation down
// promptly and surfaces the context's error. Execute is the single
// execution path shared by the daemon, cmd/iosim and cmd/iotrace, so all
// produce the same report for the same request.
func Execute(ctx context.Context, req Request) (core.Report, error) {
	c, b, err := resolve(req)
	if err != nil {
		return core.Report{}, err
	}
	if b.run == nil {
		// The request names the trace only by hash; resolving the bytes
		// needs a store (the daemon's upload registry, or a file loaded by
		// iosim -trace) — callers with the trace in hand use ExecuteTrace.
		return core.Report{}, core.Classify("trace_unknown",
			fmt.Errorf("serve: trace %s is not available here", c.Trace))
	}
	return b.run(ctx, b)
}

// ExecuteTrace runs a canonicalized app-"trace" request against a resolved
// trace: the replay machine is the large Paragon with the request's I/O
// partition, the interface is req.Version, and req.Opt selects the
// prefetch-overlap replay. The caller is responsible for tr matching
// req.Trace — the daemon resolves it from its upload store by hash. The int
// argument is ignored; it is kept only for the perfbench harness, which
// passes 0.
func ExecuteTrace(ctx context.Context, req Request, _ int, tr *trace.Trace) (core.Report, error) {
	c, b, err := resolve(req)
	if err != nil {
		return core.Report{}, err
	}
	return tracerun.Run(tracerun.Config{
		Ctx: ctx, Faults: b.plan, Machine: b.m, Trace: tr,
		Interface: c.Version, Opt: c.Opt,
	})
}
