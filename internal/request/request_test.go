package request

import (
	"math"
	"strings"
	"testing"
	"time"
)

// FuzzCanonicalize drives resolve with arbitrary requests: every app, the
// size fields at negative, zero, default and huge values, arbitrary
// spellings, fault plans and trace hashes. The invariants:
//
//  1. no panic and no hang — every bad request is a returned error;
//  2. a negative size field is always an error, never a silent default;
//  3. canonicalization is idempotent: Canonicalize(c) == c, with the same
//     Key();
//  4. the raw request and its canonical form bind the same machine, fault
//     plan, run, estimator input and stripe unit, so resolving before or
//     after Canonicalize can never run or price a different configuration.
//
// The seed corpus lives in testdata/fuzz/FuzzCanonicalize.
func FuzzCanonicalize(f *testing.F) {
	f.Fuzz(func(t *testing.T, app string, procs, ionodes int, opt bool, input, version string,
		cachedPct int, class string, n, memoryKB, stripeUnitKB, bufferKB, dumps, arrays int, faults, tr string) {
		req := Request{
			App: app, Procs: procs, IONodes: ionodes, Opt: opt, Input: input, Version: version,
			CachedPct: cachedPct, Class: class, N: n, MemoryKB: memoryKB, StripeUnitKB: stripeUnitKB,
			BufferKB: bufferKB, Dumps: dumps, Arrays: arrays, Faults: faults, Trace: tr, TraceData: "eA==",
		}
		var raw, canon binding
		c, err := resolve(req, &raw)
		if err != nil {
			return
		}
		if n < 0 || memoryKB < 0 || stripeUnitKB < 0 || bufferKB < 0 || dumps < 0 || arrays < 0 {
			t.Fatalf("negative size accepted: %+v -> %+v", req, c)
		}
		again, err := resolve(c, &canon)
		if err != nil {
			t.Fatalf("canonical form %+v does not resolve: %v", c, err)
		}
		if again != c || again.Key() != c.Key() {
			t.Fatalf("not idempotent:\n  once  %+v\n  twice %+v", c, again)
		}
		if *raw.m != *canon.m || raw.plan.String() != canon.plan.String() || raw.est != canon.est ||
			raw.stripeKB != canon.stripeKB || raw.unpriced != canon.unpriced || (raw.run == nil) != (canon.run == nil) {
			t.Fatalf("raw and canonical bindings differ:\n  raw   %s %q %+v su=%d %q\n  canon %s %q %+v su=%d %q",
				raw.m.Name, raw.plan.String(), raw.est, raw.stripeKB, raw.unpriced,
				canon.m.Name, canon.plan.String(), canon.est, canon.stripeKB, canon.unpriced)
		}
	})
}

// TestSquareCheckIsConstantTime binds btio at process counts up to
// MaxInt. The square check used to count up to the root, overflowing into a
// loop that never ended near MaxInt; every answer must now come at once.
func TestSquareCheckIsConstantTime(t *testing.T) {
	const root = 3037000499 // the largest root whose square fits an int64
	cases := []struct {
		procs  int
		square bool
	}{
		{math.MaxInt, false},
		{math.MaxInt - 1, false},
		{root * root, true},
		{root*root + 1, false},
		{root*root - 1, false},
		{1 << 62, true},
		{1<<62 + 1, false},
		{1 << 56, true},
		{1, true},
		{2, false},
		{49, true},
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, tc := range cases {
			_, err := Canonicalize(Request{App: "btio", Procs: tc.procs})
			if tc.square && err != nil {
				t.Errorf("btio at %d procs: %v", tc.procs, err)
			}
			if !tc.square && (err == nil || !strings.Contains(err.Error(), "square process count")) {
				t.Errorf("btio at %d procs: error %v, want the square process count error", tc.procs, err)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("binding btio at a huge process count hung")
	}
}
