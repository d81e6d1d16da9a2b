package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"pario/internal/core"
	"pario/internal/request"
)

var updateResolve = flag.Bool("update", false, "rewrite testdata/resolve.golden from the current outputs")

const resolveGolden = "testdata/resolve.golden"

// resolveCase is one row of the request-resolution table: a raw request,
// the canonical form (or the exact validation error) it must resolve to,
// and whether the simulation is small enough to run and pin here.
type resolveCase struct {
	name  string
	req   request.Request
	canon request.Request
	err   string
	exec  bool
}

// resolveCases covers every app with defaults and explicit values, case
// and whitespace spellings, scf11's opt aliasing, fault plans, the fields
// each app ignores, and every rejection of TestCanonicalizeRejectsBadRequests
// plus the order in which competing errors win.
func resolveCases(traceHash string) []resolveCase {
	const plan = "disk:0:degrade=8@t=0.5s..2s;retry=4"
	return []resolveCase{
		{name: "scf11-defaults", req: request.Request{App: "scf11"},
			canon: request.Request{App: "scf11", Procs: 4, IONodes: 12, Input: "MEDIUM", Version: "original"}},
		{name: "scf11-explicit-spelling",
			req:   request.Request{App: " SCF11 ", Procs: 8, IONodes: 16, Input: " small ", Version: " Passion "},
			canon: request.Request{App: "scf11", Procs: 8, IONodes: 16, Input: "SMALL", Version: "passion"}, exec: true},
		{name: "scf11-opt-is-prefetch", req: request.Request{App: "scf11", Opt: true, Input: "SMALL", Version: "passion"},
			canon: request.Request{App: "scf11", Procs: 4, IONodes: 12, Input: "SMALL", Version: "prefetch"}, exec: true},
		{name: "scf11-prefetch-large", req: request.Request{App: "scf11", Input: "LARGE", Version: "PREFETCH"},
			canon: request.Request{App: "scf11", Procs: 4, IONodes: 12, Input: "LARGE", Version: "prefetch"}},
		{name: "scf11-ignored-fields",
			req:   request.Request{App: "scf11", Input: "SMALL", CachedPct: 50, Class: "B", Trace: traceHash, TraceData: "eA=="},
			canon: request.Request{App: "scf11", Procs: 4, IONodes: 12, Input: "SMALL", Version: "original"}, exec: true},
		{name: "scf11-faults", req: request.Request{App: "scf11", Input: "SMALL", Faults: "retry=4; disk:0:degrade=8@t=0.5s..2s"},
			canon: request.Request{App: "scf11", Procs: 4, IONodes: 12, Input: "SMALL", Version: "original", Faults: plan}, exec: true},
		{name: "scf30-defaults", req: request.Request{App: "scf30"},
			canon: request.Request{App: "scf30", Procs: 4, IONodes: 16, Input: "MEDIUM", CachedPct: 90}},
		{name: "scf30-explicit-spelling", req: request.Request{App: "Scf30", Procs: 2, IONodes: 12, Input: "Small", CachedPct: 100, Version: "passion", Opt: true},
			canon: request.Request{App: "scf30", Procs: 2, IONodes: 12, Input: "SMALL", CachedPct: 100}, exec: true},
		{name: "scf30-large-64io", req: request.Request{App: "scf30", Procs: 32, IONodes: 64, Input: "large", CachedPct: 25},
			canon: request.Request{App: "scf30", Procs: 32, IONodes: 64, Input: "LARGE", CachedPct: 25}},
		{name: "fft-defaults", req: request.Request{App: "fft"},
			canon: request.Request{App: "fft", Procs: 4, IONodes: 2}, exec: true},
		{name: "fft-explicit-ignored-fields",
			req:   request.Request{App: "FFT", Procs: 2, IONodes: 4, Opt: true, Input: "LARGE", Version: "passion", Class: "B", CachedPct: 50},
			canon: request.Request{App: "fft", Procs: 2, IONodes: 4, Opt: true}, exec: true},
		{name: "fft-procs-beyond-machine", req: request.Request{App: "fft", Procs: 2000},
			canon: request.Request{App: "fft", Procs: 2000, IONodes: 2}, exec: true},
		{name: "btio-defaults", req: request.Request{App: "btio"},
			canon: request.Request{App: "btio", Procs: 4, Class: "A"}},
		{name: "btio-ignores-ionodes", req: request.Request{App: "btio", Procs: 4, IONodes: 16, Class: " a ", Opt: true, Input: "SMALL"},
			canon: request.Request{App: "btio", Procs: 4, Class: "A", Opt: true}, exec: true},
		{name: "btio-class-b", req: request.Request{App: "BTIO", Procs: 9, Class: "b", Opt: true},
			canon: request.Request{App: "btio", Procs: 9, Class: "B", Opt: true}},
		{name: "ast-defaults", req: request.Request{App: "ast"},
			canon: request.Request{App: "ast", Procs: 4, IONodes: 16}},
		{name: "ast-explicit-faults", req: request.Request{App: " Ast", Procs: 4, IONodes: 64, Opt: true, Faults: "retry=4;disk:0:degrade=8@t=500ms..2s", Class: "B"},
			canon: request.Request{App: "ast", Procs: 4, IONodes: 64, Opt: true, Faults: plan}, exec: true},
		{name: "ast-opt", req: request.Request{App: "ast", Opt: true},
			canon: request.Request{App: "ast", Procs: 4, IONodes: 16, Opt: true}, exec: true},
		{name: "trace-defaults", req: request.Request{App: "trace", Trace: traceHash},
			canon: request.Request{App: "trace", IONodes: 12, Version: "native", Trace: traceHash}, exec: true},
		{name: "trace-explicit-ignored-procs",
			req:   request.Request{App: " TRACE ", Procs: 16, IONodes: 16, Trace: " " + strings.ToUpper(traceHash) + " ", Version: "Fortran", Opt: true, Input: "SMALL", TraceData: "eA=="},
			canon: request.Request{App: "trace", IONodes: 16, Opt: true, Version: "fortran", Trace: traceHash}, exec: true},
		{name: "trace-faults", req: request.Request{App: "trace", Trace: traceHash, Version: "passion", Faults: "retry=4; disk:0:degrade=8@t=0.5s..2s"},
			canon: request.Request{App: "trace", IONodes: 12, Version: "passion", Trace: traceHash, Faults: plan}, exec: true},

		// Every rejection of TestCanonicalizeRejectsBadRequests.
		{name: "reject-unknown-app", req: request.Request{App: "warp"},
			err: `serve: unknown app "warp" (scf11|scf30|fft|btio|ast|trace)`},
		{name: "reject-empty", req: request.Request{},
			err: `serve: unknown app "" (scf11|scf30|fft|btio|ast|trace)`},
		{name: "reject-negative-procs", req: request.Request{App: "scf11", Procs: -1}, err: "serve: -1 procs"},
		{name: "reject-scf11-input", req: request.Request{App: "scf11", Input: "HUGE"}, err: `serve: unknown input "HUGE"`},
		{name: "reject-scf11-version", req: request.Request{App: "scf11", Version: "turbo"}, err: `serve: unknown version "turbo"`},
		{name: "reject-scf11-partition", req: request.Request{App: "scf11", IONodes: 13},
			err: "machine: large Paragon has 12/16/64-node I/O partitions, not 13"},
		{name: "reject-scf30-cached-high", req: request.Request{App: "scf30", CachedPct: 101}, err: "serve: cached_pct 101 out of range"},
		{name: "reject-scf30-cached-low", req: request.Request{App: "scf30", CachedPct: -5}, err: "serve: cached_pct -5 out of range"},
		{name: "reject-fft-partition", req: request.Request{App: "fft", IONodes: 3},
			err: "machine: small Paragon has 2- or 4-node I/O partitions, not 3"},
		{name: "reject-btio-non-square", req: request.Request{App: "btio", Procs: 5},
			err: "serve: btio needs a square process count, got 5"},
		{name: "reject-btio-class", req: request.Request{App: "btio", Class: "C"}, err: `serve: unknown btio class "C"`},
		{name: "reject-ast-partition", req: request.Request{App: "ast", IONodes: 7},
			err: "machine: large Paragon has 12/16/64-node I/O partitions, not 7"},

		// Which error wins when a request has several.
		{name: "order-procs-before-app", req: request.Request{App: "warp", Procs: -3}, err: "serve: -3 procs"},
		{name: "order-app-before-faults", req: request.Request{App: "warp", Faults: "bogus"},
			err: `serve: unknown app "warp" (scf11|scf30|fft|btio|ast|trace)`},
		{name: "order-partition-before-input", req: request.Request{App: "scf30", IONodes: 13, Input: "HUGE", CachedPct: 101},
			err: "machine: large Paragon has 12/16/64-node I/O partitions, not 13"},
		{name: "order-input-before-version", req: request.Request{App: "scf11", Input: "HUGE", Version: "turbo"},
			err: `serve: unknown input "HUGE"`},
		{name: "order-class-before-faults", req: request.Request{App: "btio", Class: "C", Faults: "bogus"},
			err: `serve: unknown btio class "C"`},
		{name: "reject-bad-faults", req: request.Request{App: "fft", Faults: "bogus"},
			err: `fault: bad entry "bogus"`},
		// Non-finite and overflowing fault values are refused up front,
		// never left to reach the engine as a non-finite event time.
		{name: "reject-faults-inf-degrade", req: request.Request{App: "fft", Procs: 4, Faults: "disk:degrade=inf@t=0"},
			err: `fault: bad factor "inf" (want 0 < factor <= 1e+06) (in "disk:degrade=inf@t=0")`},
		{name: "reject-faults-nan-slow", req: request.Request{App: "fft", Faults: "link:slow=NaN@t=0"},
			err: `fault: bad factor "NaN" (want 0 < factor <= 1e+06) (in "link:slow=NaN@t=0")`},
		{name: "reject-faults-overflow-degrade", req: request.Request{App: "fft", Faults: "disk:degrade=1e308@t=0"},
			err: `fault: bad factor "1e308" (want 0 < factor <= 1e+06) (in "disk:degrade=1e308@t=0")`},
		{name: "reject-faults-inf-stall", req: request.Request{App: "fft", Faults: "disk:stall=inf@t=0.01"},
			err: `fault: bad stall duration "inf" (in "disk:stall=inf@t=0.01")`},
		{name: "reject-faults-inf-backoff", req: request.Request{App: "fft", Faults: "retry=4;backoff=inf"},
			err: `fault: bad backoff "inf"`},
		{name: "reject-trace-missing-hash", req: request.Request{App: "trace"},
			err: `serve: app trace needs trace=<sha256> (64 hex chars), got ""`},
		{name: "reject-trace-partition", req: request.Request{App: "trace", Trace: traceHash, IONodes: 2},
			err: "machine: large Paragon has 12/16/64-node I/O partitions, not 2"},
		{name: "reject-trace-iface", req: request.Request{App: "trace", Trace: traceHash, Version: "original"},
			err: `serve: unknown trace interface "original" (fortran|passion|native)`},

		// The size fields, the scf11 direct version and scf30's direct
		// (0% cached) form: one non-default value each, then every field
		// spelled at its default, which must key like the app's defaults.
		{name: "scf11-n", req: request.Request{App: "scf11", Input: "SMALL", N: 48},
			canon: request.Request{App: "scf11", Procs: 4, IONodes: 12, Input: "SMALL", Version: "original", N: 48}, exec: true},
		{name: "scf11-memory-kb", req: request.Request{App: "scf11", Input: "SMALL", MemoryKB: 256},
			canon: request.Request{App: "scf11", Procs: 4, IONodes: 12, Input: "SMALL", Version: "original", MemoryKB: 256}, exec: true},
		{name: "scf11-stripe-unit-kb", req: request.Request{App: "scf11", Input: "SMALL", StripeUnitKB: 128},
			canon: request.Request{App: "scf11", Procs: 4, IONodes: 12, Input: "SMALL", Version: "original", StripeUnitKB: 128}, exec: true},
		{name: "scf11-direct", req: request.Request{App: "scf11", Input: "SMALL", Version: "Direct"},
			canon: request.Request{App: "scf11", Procs: 4, IONodes: 12, Input: "SMALL", Version: "direct"}, exec: true},
		{name: "scf11-defaults-spelled", req: request.Request{App: "scf11", N: 140, MemoryKB: 64, StripeUnitKB: 64, BufferKB: 512, Dumps: 3, Arrays: 2},
			canon: request.Request{App: "scf11", Procs: 4, IONodes: 12, Input: "MEDIUM", Version: "original"}},
		{name: "scf30-n", req: request.Request{App: "scf30", Input: "SMALL", N: 48},
			canon: request.Request{App: "scf30", Procs: 4, IONodes: 16, Input: "SMALL", CachedPct: 90, N: 48}, exec: true},
		{name: "scf30-direct", req: request.Request{App: "scf30", Input: "SMALL", Version: " DIRECT "},
			canon: request.Request{App: "scf30", Procs: 4, IONodes: 16, Input: "SMALL", Version: "direct"}, exec: true},
		{name: "scf30-defaults-spelled", req: request.Request{App: "scf30", N: 140, MemoryKB: 256},
			canon: request.Request{App: "scf30", Procs: 4, IONodes: 16, Input: "MEDIUM", CachedPct: 90}},
		{name: "fft-n", req: request.Request{App: "fft", N: 512},
			canon: request.Request{App: "fft", Procs: 4, IONodes: 2, N: 512}, exec: true},
		{name: "fft-buffer-kb", req: request.Request{App: "fft", BufferKB: 1024},
			canon: request.Request{App: "fft", Procs: 4, IONodes: 2, BufferKB: 1024}, exec: true},
		{name: "fft-defaults-spelled", req: request.Request{App: "fft", N: 4096, BufferKB: 8192, Dumps: 3},
			canon: request.Request{App: "fft", Procs: 4, IONodes: 2}},
		{name: "btio-n", req: request.Request{App: "btio", N: 16},
			canon: request.Request{App: "btio", Procs: 4, Class: "A", N: 16}, exec: true},
		{name: "btio-dumps", req: request.Request{App: "btio", Dumps: 3},
			canon: request.Request{App: "btio", Procs: 4, Class: "A", Dumps: 3}, exec: true},
		{name: "btio-defaults-spelled", req: request.Request{App: "btio", N: 64, Dumps: 40, Arrays: 2},
			canon: request.Request{App: "btio", Procs: 4, Class: "A"}},
		{name: "ast-n", req: request.Request{App: "ast", N: 256},
			canon: request.Request{App: "ast", Procs: 4, IONodes: 16, N: 256}, exec: true},
		{name: "ast-arrays", req: request.Request{App: "ast", Arrays: 2},
			canon: request.Request{App: "ast", Procs: 4, IONodes: 16, Arrays: 2}, exec: true},
		{name: "ast-dumps", req: request.Request{App: "ast", Dumps: 2},
			canon: request.Request{App: "ast", Procs: 4, IONodes: 16, Dumps: 2}, exec: true},
		{name: "ast-defaults-spelled", req: request.Request{App: "ast", N: 2048, Arrays: 5, Dumps: 12, MemoryKB: 64},
			canon: request.Request{App: "ast", Procs: 4, IONodes: 16}},
		{name: "reject-negative-n", req: request.Request{App: "scf11", N: -1}, err: "serve: n -1 is negative"},
		{name: "reject-negative-memory-kb", req: request.Request{App: "scf11", MemoryKB: -64},
			err: "serve: memory_kb -64 is negative"},
		{name: "reject-negative-stripe-unit-kb", req: request.Request{App: "scf11", StripeUnitKB: -1},
			err: "serve: stripe_unit_kb -1 is negative"},
		{name: "reject-negative-buffer-kb", req: request.Request{App: "fft", BufferKB: -1},
			err: "serve: buffer_kb -1 is negative"},
		{name: "reject-negative-dumps", req: request.Request{App: "btio", Dumps: -1}, err: "serve: dumps -1 is negative"},
		{name: "reject-negative-arrays", req: request.Request{App: "ast", Arrays: -2}, err: "serve: arrays -2 is negative"},
		{name: "reject-negative-ignored-field", req: request.Request{App: "fft", Arrays: -1}, err: "serve: arrays -1 is negative"},
		{name: "reject-huge-n", req: request.Request{App: "ast", N: 1 << 40}, err: "serve: n 1099511627776 out of range (1..32768)"},
		{name: "reject-huge-memory-kb", req: request.Request{App: "scf11", MemoryKB: 1025}, err: "serve: memory_kb 1025 out of range (1..1024)"},
		{name: "reject-fft-buffer-below-column", req: request.Request{App: "fft", N: 8192, BufferKB: 64},
			err: "serve: fft buffer_kb 64 cannot hold one column of n=8192"},
		{name: "reject-scf30-direct-cached", req: request.Request{App: "scf30", Version: "direct", CachedPct: 50},
			err: "serve: scf30 version direct caches no integrals, not cached_pct 50"},
		{name: "reject-btio-maxint-procs", req: request.Request{App: "btio", Procs: math.MaxInt},
			err: fmt.Sprintf("serve: btio needs a square process count, got %d", math.MaxInt)},
	}
}

// outcome renders a body as its SHA-256, or an error as its taxonomy class
// and text, for the golden file.
func outcome(body []byte, err error) string {
	if err != nil {
		return fmt.Sprintf("error %s: %v", core.ErrorClass(err), err)
	}
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

// TestResolveDifferential pins, for every row, the canonical form or the
// exact validation error, the content address, canonicalization's
// idempotence, the estimate body (or its error), and — for configurations
// small enough to simulate here — the exact report body. The bodies are
// pinned by hash in testdata/resolve.golden; -update rewrites it.
func TestResolveDifferential(t *testing.T) {
	tr := testTrace()
	traceHash := tr.Hash()
	got := map[string]string{}
	keys := map[string]string{}
	for _, tc := range resolveCases(traceHash) {
		c, err := request.Canonicalize(tc.req)
		if tc.err != "" {
			if err == nil || err.Error() != tc.err {
				t.Errorf("%s: error %v, want %q", tc.name, err, tc.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if c != tc.canon {
			t.Errorf("%s: canonical form\n  got  %+v\n  want %+v", tc.name, c, tc.canon)
		}
		if again, err := request.Canonicalize(c); err != nil || again != c {
			t.Errorf("%s: canonicalization not idempotent: %+v, %v", tc.name, again, err)
		}
		line := "key=" + c.Key()
		est, err := request.Estimate(c)
		var body []byte
		if err == nil {
			body, err = EncodeEstimate(c, est)
		}
		line += "\testimate=" + outcome(body, err)
		if tc.exec {
			var rep core.Report
			if c.App == "trace" {
				rep, err = request.RunTrace(context.Background(), c, tr)
			} else {
				rep, err = request.Run(context.Background(), c)
			}
			body = nil
			if err == nil {
				body, err = Encode(c, rep)
			}
			line += "\texec=" + outcome(body, err)
		}
		got[tc.name] = line
		if base, ok := strings.CutSuffix(tc.name, "-spelled"); ok && c.Key() != keys[base] {
			t.Errorf("%s: key %s, want %s's %s", tc.name, c.Key(), base, keys[base])
		}
		keys[tc.name] = c.Key()
	}
	if c, err := request.Canonicalize(request.Request{App: "trace", Trace: traceHash}); err == nil {
		// Execute names the trace only by hash; without a store the
		// replay must fail closed.
		_, err := request.Run(context.Background(), c)
		got["trace-execute-without-store"] = "exec=" + outcome(nil, err)
	}

	names := make([]string, 0, len(got))
	for n := range got {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s\t%s\n", n, got[n])
	}
	if *updateResolve {
		if err := os.WriteFile(resolveGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(resolveGolden)
	if err != nil {
		t.Fatalf("read %s: %v (run with -update to create it)", resolveGolden, err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	gotLines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	if len(wantLines) != len(gotLines) {
		t.Errorf("%d golden rows, %d produced", len(wantLines), len(gotLines))
	}
	for i := 0; i < len(wantLines) && i < len(gotLines); i++ {
		if wantLines[i] != gotLines[i] {
			t.Errorf("row differs from %s:\n  got  %s\n  want %s", resolveGolden, gotLines[i], wantLines[i])
		}
	}
}

// benchRequests is one raw request per app, as a client would send it.
func benchRequests() []request.Request {
	return []request.Request{
		{App: "scf11", Procs: 8, Input: "small", Version: "passion"},
		{App: "scf30", Procs: 16, IONodes: 64, CachedPct: 50},
		{App: "fft", Procs: 8, IONodes: 4, Opt: true},
		{App: "btio", Procs: 16, Class: "B", Opt: true},
		{App: "ast", Procs: 32, Opt: true},
		{App: "trace", Trace: testTrace().Hash(), Version: "passion"},
	}
}

// BenchmarkCanonicalize measures the request layer's hot path: validate,
// resolve defaults and content-address one request of each app.
func BenchmarkCanonicalize(b *testing.B) {
	reqs := benchRequests()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := request.Canonicalize(reqs[i%len(reqs)])
		if err != nil {
			b.Fatal(err)
		}
		_ = c.Key()
	}
}

// BenchmarkEstimateFor measures the analytic estimate of one canonical
// request of each estimable app.
func BenchmarkEstimateFor(b *testing.B) {
	var canon []request.Request
	for _, r := range benchRequests() {
		if r.App == "trace" {
			continue
		}
		c, err := request.Canonicalize(r)
		if err != nil {
			b.Fatal(err)
		}
		canon = append(canon, c)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := request.Estimate(canon[i%len(canon)]); err != nil {
			b.Fatal(err)
		}
	}
}
