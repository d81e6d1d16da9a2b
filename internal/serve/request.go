// Package serve is the simulation-serving layer: a long-running HTTP JSON
// service over internal/request's run space. It schedules run requests on a
// bounded worker pool layered on the experiment runner (internal/exp.Map),
// caches results by canonicalized request content — sound because every
// simulation is deterministic — collapses concurrent identical requests
// with singleflight, sheds load with explicit queue bounds (HTTP 429), and
// plumbs per-request timeouts down into the simulation kernel so a canceled
// request frees its worker instead of leaking it.
//
// The response codec lives here too, shared with cmd/iosim's -json flag, so
// the CLI and the daemon emit byte-identical reports for the same config.
package serve

import (
	"context"

	"pario/internal/core"
	"pario/internal/request"
	"pario/internal/roofline"
	"pario/internal/trace"
)

// The declarations below keep the perfbench module, which builds against
// this package's API as it stood before internal/request existed, working.
// Everything else uses internal/request directly.

// Request is request.Request.
type Request = request.Request

// Canonicalize forwards to request.Canonicalize.
func Canonicalize(req Request) (Request, error) { return request.Canonicalize(req) }

// Execute forwards to request.Run.
func Execute(ctx context.Context, req Request) (core.Report, error) { return request.Run(ctx, req) }

// ExecuteTrace forwards to request.RunTrace; the int argument is ignored.
func ExecuteTrace(ctx context.Context, req Request, _ int, tr *trace.Trace) (core.Report, error) {
	return request.RunTrace(ctx, req, tr)
}

// EstimateFor forwards to request.Estimate.
func EstimateFor(canon Request) (*roofline.Estimate, error) { return request.Estimate(canon) }
