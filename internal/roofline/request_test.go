package roofline_test

import (
	"errors"
	"math"
	"testing"

	"pario/internal/request"
	"pario/internal/roofline"
)

// TestEstimateRequestErrors walks the estimate path's refusal surface: fault
// plans, unknown apps, invalid partitions and out-of-domain shapes all
// return errors rather than fabricated numbers.
func TestEstimateRequestErrors(t *testing.T) {
	cases := []struct {
		name string
		req  request.Request
	}{
		{"faults", request.Request{App: "scf11", Input: "SMALL", Faults: "disk:0:fail@t=1s"}},
		{"unknown-app", request.Request{App: "lu"}},
		{"bad-partition", request.Request{App: "scf11", IONodes: 7, Input: "SMALL"}},
		{"bad-input", request.Request{App: "scf11", Input: "TINY"}},
		{"fft-too-many-procs", request.Request{App: "fft", Procs: 8192}},
		{"btio-non-square", request.Request{App: "btio", Procs: 3}},
		{"ast-too-many-procs", request.Request{App: "ast", Procs: 4096}},
		{"scf30-bad-input", request.Request{App: "scf30", Input: "HUGE"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := request.Estimate(tc.req); err == nil {
				t.Fatalf("EstimateFor(%+v) succeeded, want error", tc.req)
			}
		})
	}
	faulted := mustCanon(t, request.Request{App: "ast", Faults: "disk:0:fail@t=1s"})
	if _, err := request.Estimate(faulted); !errors.Is(err, roofline.ErrUnsupported) {
		t.Fatalf("fault plan error = %v, want ErrUnsupported", err)
	}
}

// TestEstimateAccounting asserts the cross-phase bookkeeping: elapsed is
// the sum of phases, IO is the non-compute remainder, bandwidth follows
// client bytes.
func TestEstimateAccounting(t *testing.T) {
	for _, r := range []request.Request{
		{App: "scf11", Input: "SMALL"},
		{App: "scf30", Procs: 8, Input: "SMALL", CachedPct: 50},
		{App: "fft", Opt: true},
		{App: "btio"},
		{App: "ast", Opt: true},
	} {
		est := estimateOf(t, mustCanon(t, r))
		var sum float64
		for _, ph := range est.Phases {
			sum += ph.ElapsedSec
		}
		if math.Abs(sum-est.ElapsedSec) > 1e-9*sum {
			t.Errorf("%s: elapsed %.6f != phase sum %.6f", r.App, est.ElapsedSec, sum)
		}
		if est.IOSec < 0 || est.ClientBytes <= 0 || est.BandwidthMBs <= 0 {
			t.Errorf("%s: implausible accounting: %+v", r.App, est)
		}
		if est.Bottleneck == "" {
			t.Errorf("%s: no bottleneck classified", r.App)
		}
	}
}
