// Package serve is the simulation-serving layer: a long-running HTTP JSON
// service over the same run-parameter space as cmd/iosim. It schedules run
// requests on a bounded worker pool layered on the experiment runner
// (internal/exp.Map), caches results by canonicalized request content —
// sound because every simulation is deterministic — collapses concurrent
// identical requests with singleflight, sheds load with explicit queue
// bounds (HTTP 429), and plumbs per-request timeouts down into the
// simulation kernel so a canceled request frees its worker instead of
// leaking it.
//
// The response codec lives here too, shared with cmd/iosim's -json flag, so
// the CLI and the daemon emit byte-identical reports for the same config.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"pario/internal/apps/ast"
	"pario/internal/apps/btio"
	"pario/internal/apps/fft"
	"pario/internal/apps/scf"
	"pario/internal/core"
	"pario/internal/fault"
	"pario/internal/machine"
	"pario/internal/roofline"
)

// Request names one simulation run: the iosim parameter space. The zero
// value of every optional field means "the app's paper default", exactly as
// cmd/iosim's flag defaults do; Canonicalize resolves them so that
// equivalent requests share one cache key.
type Request struct {
	// App is one of scf11, scf30, fft, btio, ast, trace (case-insensitive).
	App string `json:"app"`
	// Procs is the number of compute processes (default 4).
	Procs int `json:"procs,omitempty"`
	// IONodes is the I/O partition size; 0 selects the app's paper
	// default. btio runs on the fixed SP2 partition and ignores it.
	IONodes int `json:"ionodes,omitempty"`
	// Opt applies the application's optimization (layout, collective,
	// PASSION+prefetch).
	Opt bool `json:"opt,omitempty"`
	// Input is the SCF input deck: SMALL, MEDIUM or LARGE (scf only).
	Input string `json:"input,omitempty"`
	// Version is the scf11 I/O interface: original, passion or prefetch.
	Version string `json:"version,omitempty"`
	// CachedPct is the scf30 disk-cached integral percentage (default 90).
	CachedPct int `json:"cached_pct,omitempty"`
	// Class is the btio problem class: A or B.
	Class string `json:"class,omitempty"`
	// Faults is a fault-plan DSL string (see internal/fault): injections
	// and resilience policy scheduled at exact virtual times. Empty means
	// a healthy run. The plan is canonicalized into the cache key, so a
	// degraded run can never alias a healthy one.
	Faults string `json:"faults,omitempty"`
	// Trace is the content hash (hex SHA-256 of the canonical binary
	// encoding, as POST /trace reports) of the trace to replay; required
	// by — and only meaningful for — app "trace". The hash is the run's
	// workload identity: it is canonicalized into the cache key, so a
	// trace replay caches exactly like any other app.
	Trace string `json:"trace,omitempty"`
	// TraceData optionally inlines the trace itself, base64-encoded
	// (either encoding): the daemon registers it before canonicalizing,
	// exactly as a prior POST /trace would have. It is transport, not
	// identity — always cleared from the canonical form, never part of
	// the key — and it is how cluster peers forward trace runs to owners
	// that have not seen the upload.
	TraceData string `json:"trace_data,omitempty"`
}

// traceIfaces is the replay-interface vocabulary of app "trace", carried
// in the Version field like scf11's version.
var traceIfaces = map[string]bool{"fortran": true, "passion": true, "native": true}

// isTraceHash reports whether s looks like a trace content hash: exactly
// 64 lower-hex characters.
func isTraceHash(s string) bool {
	if len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// scfDecks is the scf input-deck vocabulary.
var scfDecks = map[string]scf.Input{"SMALL": scf.Small, "MEDIUM": scf.Medium, "LARGE": scf.Large}

// scf11Versions is the request-level version vocabulary. Opt folds into
// prefetch during canonicalization, mirroring iosim's -opt.
var scf11Versions = map[string]scf.Version{
	"original": scf.Original, "passion": scf.Passion, "prefetch": scf.PassionPrefetch,
}

// binding is what a canonical request names, resolved once by resolve: the
// machine it runs on, its parsed fault plan, the app's run and the app
// parameters both the simulation and the roofline estimator read.
type binding struct {
	m    *machine.Config
	plan *fault.Plan
	// run simulates the request; nil for app "trace", whose workload is
	// named only by hash (see ExecuteTrace).
	run func(ctx context.Context, b binding) (core.Report, error)
	// est holds the resolved app parameters (deck, version, class); unused
	// for app "trace".
	est roofline.Input
}

// Canonicalize validates req and resolves every default, returning the
// canonical form that keys the result cache: fields an app ignores are
// cleared, case is normalized, and iosim's -opt aliasing (scf11 -opt means
// the prefetch version) is applied. Two requests that would simulate the
// same configuration canonicalize to identical values.
func Canonicalize(req Request) (Request, error) {
	c, _, err := resolve(req)
	return c, err
}

// resolve is the one per-app rule of what a request names. It returns the
// canonical form Canonicalize answers, bound to the machine, fault plan,
// run and estimator input that form names; Execute, ExecuteTrace and
// EstimateFor all resolve through it, so they can never disagree about a
// request.
func resolve(req Request) (c Request, b binding, err error) {
	c = Request{App: strings.ToLower(strings.TrimSpace(req.App))}
	c.Procs = req.Procs
	if c.Procs == 0 {
		c.Procs = 4
	}
	if c.Procs < 1 {
		return Request{}, binding{}, fmt.Errorf("serve: %d procs", c.Procs)
	}

	nio := func(def int) int {
		if req.IONodes == 0 {
			return def
		}
		return req.IONodes
	}
	input := strings.ToUpper(strings.TrimSpace(req.Input))
	if input == "" {
		input = "MEDIUM"
	}

	switch c.App {
	case "scf11":
		c.IONodes = nio(12)
		if b.m, err = machine.ParagonLarge(c.IONodes); err != nil {
			return Request{}, binding{}, err
		}
		var ok bool
		if b.est.Input, ok = scfDecks[input]; !ok {
			return Request{}, binding{}, fmt.Errorf("serve: unknown input %q", req.Input)
		}
		c.Input = input
		v := strings.ToLower(strings.TrimSpace(req.Version))
		if v == "" {
			v = "original"
		}
		if _, ok = scf11Versions[v]; !ok {
			return Request{}, binding{}, fmt.Errorf("serve: unknown version %q", req.Version)
		}
		if req.Opt {
			v = "prefetch" // iosim -opt selects PASSION+prefetch
		}
		c.Version, b.est.Version = v, scf11Versions[v]
		b.run = func(ctx context.Context, b binding) (core.Report, error) {
			return scf.Run11(scf.Config11{
				Ctx: ctx, Faults: b.plan, Machine: b.m, Input: b.est.Input, Procs: b.est.Procs, Version: b.est.Version,
			})
		}
	case "scf30":
		c.IONodes = nio(16)
		if b.m, err = machine.ParagonLarge(c.IONodes); err != nil {
			return Request{}, binding{}, err
		}
		var ok bool
		if b.est.Input, ok = scfDecks[input]; !ok {
			return Request{}, binding{}, fmt.Errorf("serve: unknown input %q", req.Input)
		}
		c.Input = input
		c.CachedPct = req.CachedPct
		if c.CachedPct == 0 {
			c.CachedPct = 90
		}
		if c.CachedPct < 0 || c.CachedPct > 100 {
			return Request{}, binding{}, fmt.Errorf("serve: cached_pct %d out of range", req.CachedPct)
		}
		b.run = func(ctx context.Context, b binding) (core.Report, error) {
			return scf.Run30(scf.Config30{
				Ctx: ctx, Faults: b.plan, Machine: b.m, Input: b.est.Input, Procs: b.est.Procs,
				CachedPct: b.est.CachedPct, Balance: true,
			})
		}
	case "fft":
		c.IONodes = nio(2)
		if b.m, err = machine.ParagonSmall(c.IONodes); err != nil {
			return Request{}, binding{}, err
		}
		c.Opt = req.Opt
		b.run = func(ctx context.Context, b binding) (core.Report, error) {
			return fft.Run(fft.Config{Ctx: ctx, Faults: b.plan, Machine: b.m, Procs: b.est.Procs, OptimizedLayout: b.est.Opt})
		}
	case "btio":
		// The SP2 partition is fixed; IONodes stays 0 in canonical form.
		if sq := isqrt(c.Procs); sq*sq != c.Procs {
			return Request{}, binding{}, fmt.Errorf("serve: btio needs a square process count, got %d", c.Procs)
		}
		cls := strings.ToUpper(strings.TrimSpace(req.Class))
		switch cls {
		case "", "A":
			cls, b.est.Class = "A", btio.ClassA
		case "B":
			b.est.Class = btio.ClassB
		default:
			return Request{}, binding{}, fmt.Errorf("serve: unknown btio class %q", req.Class)
		}
		c.Class = cls
		c.Opt = req.Opt
		if b.m, err = machine.SP2(); err != nil {
			return Request{}, binding{}, err
		}
		b.run = func(ctx context.Context, b binding) (core.Report, error) {
			return btio.Run(btio.Config{Ctx: ctx, Faults: b.plan, Machine: b.m, Procs: b.est.Procs, Class: b.est.Class, Collective: b.est.Opt})
		}
	case "ast":
		c.IONodes = nio(16)
		if b.m, err = machine.ParagonLarge(c.IONodes); err != nil {
			return Request{}, binding{}, err
		}
		c.Opt = req.Opt
		b.run = func(ctx context.Context, b binding) (core.Report, error) {
			return ast.Run(ast.Config{Ctx: ctx, Faults: b.plan, Machine: b.m, Procs: b.est.Procs, Optimized: b.est.Opt})
		}
	case "trace":
		// The trace itself fixes the rank count; Procs is cleared so
		// every spelling of a replay shares one key. TraceData is
		// transport (see the field) and never reaches the canonical form.
		c.Procs = 0
		c.IONodes = nio(12)
		if b.m, err = machine.ParagonLarge(c.IONodes); err != nil {
			return Request{}, binding{}, err
		}
		h := strings.ToLower(strings.TrimSpace(req.Trace))
		if !isTraceHash(h) {
			return Request{}, binding{}, fmt.Errorf("serve: app trace needs trace=<sha256> (64 hex chars), got %q", req.Trace)
		}
		c.Trace = h
		v := strings.ToLower(strings.TrimSpace(req.Version))
		if v == "" {
			v = "native"
		}
		if !traceIfaces[v] {
			return Request{}, binding{}, fmt.Errorf("serve: unknown trace interface %q (fortran|passion|native)", req.Version)
		}
		c.Version = v
		c.Opt = req.Opt
	default:
		return Request{}, binding{}, fmt.Errorf("serve: unknown app %q (scf11|scf30|fft|btio|ast|trace)", req.App)
	}
	if req.Faults != "" {
		if b.plan, err = fault.Parse(req.Faults); err != nil {
			return Request{}, binding{}, err
		}
		// The canonical DSL rendering keys the cache: "200ms" and "0.2s"
		// fold onto one entry, while any injection at all keeps the key
		// distinct from the healthy run's.
		c.Faults = b.plan.String()
	}
	b.est.App, b.est.Procs, b.est.Opt, b.est.CachedPct = c.App, c.Procs, c.Opt, c.CachedPct
	return c, b, nil
}

func isqrt(n int) int {
	r := 0
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}

// Key returns the request's content address: the hex SHA-256 of its
// canonical JSON encoding. Call it only on canonicalized requests.
func (r Request) Key() string {
	b, err := json.Marshal(r)
	if err != nil {
		// Request is a plain struct of scalars; Marshal cannot fail.
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
