package serve

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"pario/internal/request"
)

// TestCanonicalizeResolvesDefaults verifies bare requests and
// fully-spelled-out equivalents collapse to one canonical form (and one
// content address).
func TestCanonicalizeResolvesDefaults(t *testing.T) {
	cases := []struct {
		name string
		a, b request.Request
	}{
		{"scf11 defaults", request.Request{App: "scf11"},
			request.Request{App: "SCF11", Procs: 4, IONodes: 12, Input: "medium", Version: "ORIGINAL"}},
		{"scf11 opt is prefetch", request.Request{App: "scf11", Opt: true},
			request.Request{App: "scf11", Version: "prefetch"}},
		{"scf30 defaults", request.Request{App: "scf30"},
			request.Request{App: "scf30", Procs: 4, IONodes: 16, Input: "MEDIUM", CachedPct: 90}},
		{"fft ignores scf fields", request.Request{App: "fft"},
			request.Request{App: "fft", Input: "LARGE", Version: "passion", CachedPct: 50, Class: "B"}},
		{"btio ignores ionodes", request.Request{App: "btio"},
			request.Request{App: "btio", IONodes: 16, Class: "a"}},
		{"ast defaults", request.Request{App: "ast"},
			request.Request{App: "AST", Procs: 4, IONodes: 16}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ca, err := request.Canonicalize(c.a)
			if err != nil {
				t.Fatal(err)
			}
			cb, err := request.Canonicalize(c.b)
			if err != nil {
				t.Fatal(err)
			}
			if ca != cb {
				t.Fatalf("canonical forms differ:\n  %+v\n  %+v", ca, cb)
			}
			if ca.Key() != cb.Key() {
				t.Fatal("keys differ for equal canonical forms")
			}
		})
	}
}

// TestCanonicalizeRejectsBadRequests pins the validation surface: every
// rejection happens before a request could reach the scheduler.
func TestCanonicalizeRejectsBadRequests(t *testing.T) {
	for _, req := range []request.Request{
		{App: "warp"},
		{},
		{App: "scf11", Procs: -1},
		{App: "scf11", Input: "HUGE"},
		{App: "scf11", Version: "turbo"},
		{App: "scf11", IONodes: 13},
		{App: "scf30", CachedPct: 101},
		{App: "scf30", CachedPct: -5},
		{App: "fft", IONodes: 3},
		{App: "btio", Procs: 5},
		{App: "btio", Class: "C"},
		{App: "ast", IONodes: 7},
	} {
		if _, err := request.Canonicalize(req); err == nil {
			t.Errorf("%+v accepted", req)
		}
	}
}

// TestKeyDistinguishesConfigurations verifies distinct configurations get
// distinct content addresses.
func TestKeyDistinguishesConfigurations(t *testing.T) {
	seen := map[string]request.Request{}
	for _, req := range []request.Request{
		{App: "scf11"},
		{App: "scf11", Procs: 8},
		{App: "scf11", Input: "LARGE"},
		{App: "scf11", Version: "passion"},
		{App: "scf30"},
		{App: "scf30", CachedPct: 50},
		{App: "fft"},
		{App: "fft", Opt: true},
		{App: "fft", IONodes: 4},
		{App: "btio"},
		{App: "btio", Class: "B"},
		{App: "ast"},
	} {
		c, err := request.Canonicalize(req)
		if err != nil {
			t.Fatal(err)
		}
		k := c.Key()
		if prev, dup := seen[k]; dup {
			t.Fatalf("key collision: %+v and %+v", prev, req)
		}
		seen[k] = req
	}
}

// TestExecuteRunsEveryApp smoke-tests the shared execution path per app at
// small sizes and checks report plausibility plus encode determinism.
func TestExecuteRunsEveryApp(t *testing.T) {
	for _, req := range []request.Request{
		{App: "scf11", Input: "SMALL"},
		{App: "scf30", Input: "SMALL"},
		{App: "fft"},
		{App: "btio", Opt: true},
		{App: "ast", Opt: true},
	} {
		c, err := request.Canonicalize(req)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := request.Run(context.Background(), c)
		if err != nil {
			t.Fatalf("%s: %v", c.App, err)
		}
		if rep.ExecSec <= 0 || rep.BytesRead+rep.BytesWritten <= 0 {
			t.Fatalf("%s: implausible report %+v", c.App, rep)
		}
		b1, err := Encode(c, rep)
		if err != nil {
			t.Fatal(err)
		}
		b2, err := Encode(c, rep)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("%s: Encode is not deterministic", c.App)
		}
	}
}

// TestExecuteHonorsCancellation runs a real (multi-hundred-millisecond)
// simulation under a 10ms deadline and verifies the kernel interrupt tears
// it down promptly with the context's error — the contract that lets the
// daemon's timeouts free pool slots instead of leaking workers.
func TestExecuteHonorsCancellation(t *testing.T) {
	c, err := request.Canonicalize(request.Request{App: "fft", Procs: 16})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = request.Run(ctx, c)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}
