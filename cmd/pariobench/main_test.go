package main

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestDriveInProcess runs a small mixed stream against an in-process
// server and requires the runs==misses invariant to hold (exit 0).
func TestDriveInProcess(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-n", "16", "-c", "4", "-hot", "0.75"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "hit rate") || !strings.Contains(out, "OK:") {
		t.Fatalf("unexpected report:\n%s", out)
	}
}

// TestSweepDriveInProcess runs the sweep drive against an in-process server
// and requires the full sweep contract (points accounting, runs == cold
// points, byte-identical replay, all-cache repeat) to hold.
func TestSweepDriveInProcess(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-sweep", "app=fft&procs=1,2,4&opt=both"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "6 points") || !strings.Contains(out, "byte-identical") ||
		!strings.Contains(out, "OK:") {
		t.Fatalf("unexpected sweep report:\n%s", out)
	}
}

func TestSweepDriveRejectsBadSpec(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-sweep", "app=warp"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "sweep") {
		t.Fatalf("stderr missing sweep diagnosis: %s", stderr.String())
	}
}

func TestDriveRejectsBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-n", "0"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if code := run([]string{"-hot", "1.5"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

// TestNearestRank pins the percentile index to ceil(pct/100·n)−1 over the
// sample 1..n: p99 of 100 samples is the 99th, not the maximum, and p50 of
// an even count is the lower middle.
func TestNearestRank(t *testing.T) {
	for _, tc := range []struct{ n, p50, p99 int }{
		{1, 1, 1},
		{2, 1, 2},
		{100, 50, 99},
		{500, 250, 495},
	} {
		lats := make([]time.Duration, tc.n)
		for i := range lats {
			lats[i] = time.Duration(i + 1)
		}
		if got := nearestRank(lats, 50); got != time.Duration(tc.p50) {
			t.Errorf("n=%d: p50 = %d, want %d", tc.n, got, tc.p50)
		}
		if got := nearestRank(lats, 99); got != time.Duration(tc.p99) {
			t.Errorf("n=%d: p99 = %d, want %d", tc.n, got, tc.p99)
		}
	}
}
