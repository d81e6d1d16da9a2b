// Package request is the one binding from a run's parameters to what runs:
// it validates a Request, resolves every default into a canonical form whose
// hash is the run's content address, and binds that form to the machine,
// fault plan, app run and roofline input it names. pariod's /run and /sweep,
// cmd/iosim, cmd/iotrace and every app-run artifact of internal/exp resolve
// through here, so a paper figure's point and the /run request that
// reproduces it are the same request under the same key.
//
// Error texts keep the "serve:" prefix pariod's 400 bodies have always
// carried.
package request

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
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

// Request names one run: an app, its machine partition, the optimization
// it applies and the app parameters the paper's artifacts vary. The zero
// value of every optional field means "the app's paper default", exactly as
// cmd/iosim's flag defaults do; Canonicalize resolves them so that
// equivalent requests share one key. A size field spelled at its default is
// cleared from the canonical form, so it keys like the omitted field.
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
	// Version is the scf11 I/O interface: original, passion, prefetch or
	// direct (recompute every integral, no I/O). For scf30 only direct
	// means anything: no integral is cached, the cached_pct 0 that the
	// field's zero value cannot say.
	Version string `json:"version,omitempty"`
	// CachedPct is the scf30 disk-cached integral percentage (default 90).
	CachedPct int `json:"cached_pct,omitempty"`
	// Class is the btio problem class: A or B.
	Class string `json:"class,omitempty"`
	// N is the problem size: the scf deck's basis functions, the fft
	// matrix order, the btio grid edge or the ast grid edge. The default is
	// the deck's, the class's or the app's own.
	N int `json:"n,omitempty"`
	// MemoryKB is scf11's per-process I/O buffer M (default 64).
	MemoryKB int `json:"memory_kb,omitempty"`
	// StripeUnitKB is scf11's stripe unit Su (default: the machine's, 64).
	StripeUnitKB int `json:"stripe_unit_kb,omitempty"`
	// BufferKB is fft's in-core buffer (default 8192).
	BufferKB int `json:"buffer_kb,omitempty"`
	// Dumps is the number of solution dumps btio (default: the class's)
	// and ast (default 12) write.
	Dumps int `json:"dumps,omitempty"`
	// Arrays is the number of arrays in an ast dump (default 5).
	Arrays int `json:"arrays,omitempty"`
	// Faults is a fault-plan DSL string (see internal/fault): injections
	// and resilience policy scheduled at exact virtual times. Empty means
	// a healthy run. The plan is canonicalized into the key, so a
	// degraded run can never alias a healthy one.
	Faults string `json:"faults,omitempty"`
	// Trace is the content hash (hex SHA-256 of the canonical binary
	// encoding, as POST /trace reports) of the trace to replay; required
	// by — and only meaningful for — app "trace". The hash is the run's
	// workload identity: it is canonicalized into the key, so a trace
	// replay caches exactly like any other app.
	Trace string `json:"trace,omitempty"`
	// TraceData optionally inlines the trace itself, base64-encoded
	// (either encoding): the daemon registers it before canonicalizing,
	// exactly as a prior POST /trace would have. It is transport, not
	// identity — always cleared from the canonical form, never part of
	// the key — and it is how cluster peers forward trace runs to owners
	// that have not seen the upload.
	TraceData string `json:"trace_data,omitempty"`
}

// maxScale bounds every size field at this multiple of its default: the
// paper's configurations fit with room to spare, while a size that would
// overflow a byte count or allocate past any daemon's memory is refused
// before anything runs.
const maxScale = 16

// traceIfaces is the replay-interface vocabulary of app "trace", carried
// in the Version field like scf11's version.
var traceIfaces = map[string]bool{"fortran": true, "passion": true, "native": true}

// IsTraceHash reports whether s looks like a trace content hash: exactly
// 64 lower-hex characters.
func IsTraceHash(s string) bool {
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

// DeckN returns the basis-function count of the named SCF input deck (0 if
// there is none): the n a request on that deck resolves to by default.
func DeckN(deck string) int { return scfDecks[deck].N }

// scf11Versions is the request-level version vocabulary. Opt folds into
// prefetch during canonicalization, mirroring iosim's -opt.
var scf11Versions = map[string]scf.Version{
	"original": scf.Original, "passion": scf.Passion, "prefetch": scf.PassionPrefetch, "direct": scf.Direct,
}

// binding is what a canonical request names, resolved once by resolve: the
// machine it runs on, its parsed fault plan, the app's setup and the app
// parameters both the simulation and the roofline estimator read.
type binding struct {
	m    *machine.Config
	plan *fault.Plan
	// setup creates the app's files on sys and returns its rank body (see
	// core.Run); nil for app "trace", whose workload is named only by
	// hash (see RunTrace).
	setup func(b *binding, sys *core.System) (core.Body, error)
	// est holds the resolved app parameters; unused for app "trace".
	est roofline.Input
	// stripeKB is scf11's stripe unit, which the simulation reads and
	// the estimator does not price.
	stripeKB int64
	// unpriced names what the estimator cannot model in this request;
	// empty when it can price it.
	unpriced string
}

// Canonicalize validates req and resolves every default, returning the
// canonical form that keys the result cache: fields an app ignores are
// cleared, case is normalized, sizes at their default are cleared, and
// iosim's -opt aliasing (scf11 -opt means the prefetch version) is
// applied. Two requests that would simulate the same configuration
// canonicalize to identical values.
func Canonicalize(req Request) (Request, error) {
	var b binding
	return resolve(req, &b)
}

// size resolves one optional, non-negative size field against its default
// def: zero selects def, and the canonical value is zero whenever the size
// equals def. Sizes past maxScale×def are refused.
func size(name string, v, def int) (resolved, canon int, err error) {
	if v > maxScale*def {
		return 0, 0, fmt.Errorf("serve: %s %d out of range (1..%d)", name, v, maxScale*def)
	}
	if v == 0 || v == def {
		return def, 0, nil
	}
	return v, v, nil
}

// isSquare reports whether n is a perfect square in O(1): rounding the
// float root recovers the exact root of every square an int can hold, and
// a root past 3037000499 would square past MaxInt64.
func isSquare(n int) bool {
	q := int(math.Round(math.Sqrt(float64(n))))
	return q <= 3037000499 && q*q == n
}

// resolve is the one per-app rule of what a request names. It returns the
// canonical form Canonicalize answers and binds b to the machine, fault
// plan, setup and estimator input that form names; Run, RunTrace and Estimate all
// resolve through it, so they can never disagree about a request.
func resolve(req Request, b *binding) (c Request, err error) {
	c = Request{App: strings.ToLower(strings.TrimSpace(req.App))}
	c.Procs = req.Procs
	if c.Procs == 0 {
		c.Procs = 4
	}
	if c.Procs < 1 {
		return Request{}, fmt.Errorf("serve: %d procs", c.Procs)
	}
	// A negative size is refused whether or not the app reads the field:
	// it is never a spelling of the default. (The OR is negative exactly
	// when one of the sizes is.)
	if req.N|req.MemoryKB|req.StripeUnitKB|req.BufferKB|req.Dumps|req.Arrays < 0 {
		for _, f := range [...]struct {
			name string
			v    int
		}{{"n", req.N}, {"memory_kb", req.MemoryKB}, {"stripe_unit_kb", req.StripeUnitKB},
			{"buffer_kb", req.BufferKB}, {"dumps", req.Dumps}, {"arrays", req.Arrays}} {
			if f.v < 0 {
				return Request{}, fmt.Errorf("serve: %s %d is negative", f.name, f.v)
			}
		}
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
	var n int

	switch c.App {
	case "scf11":
		c.IONodes = nio(12)
		if b.m, err = machine.ParagonLarge(c.IONodes); err != nil {
			return Request{}, err
		}
		var ok bool
		if b.est.Input, ok = scfDecks[input]; !ok {
			return Request{}, fmt.Errorf("serve: unknown input %q", req.Input)
		}
		c.Input = input
		v := strings.ToLower(strings.TrimSpace(req.Version))
		if v == "" {
			v = "original"
		}
		if _, ok = scf11Versions[v]; !ok {
			return Request{}, fmt.Errorf("serve: unknown version %q", req.Version)
		}
		if req.Opt {
			v = "prefetch" // iosim -opt selects PASSION+prefetch
		}
		c.Version, b.est.Version = v, scf11Versions[v]
		if n, c.N, err = size("n", req.N, b.est.Input.N); err != nil {
			return Request{}, err
		}
		b.est.Input.N = n
		var mem, su int
		if mem, c.MemoryKB, err = size("memory_kb", req.MemoryKB, scf.DefaultMemoryKB11); err != nil {
			return Request{}, err
		}
		if su, c.StripeUnitKB, err = size("stripe_unit_kb", req.StripeUnitKB, int(b.m.DefaultStripeUnit>>10)); err != nil {
			return Request{}, err
		}
		b.est.MemoryKB, b.stripeKB = int64(mem), int64(su)
		switch {
		case c.StripeUnitKB != 0:
			b.unpriced = "stripe_unit_kb"
		case v == "direct":
			b.unpriced = "the direct scf11 version"
		}
		b.setup = func(b *binding, sys *core.System) (core.Body, error) {
			return scf.Config11{
				Input: b.est.Input, Version: b.est.Version, MemoryKB: b.est.MemoryKB, StripeUnitKB: b.stripeKB,
			}.Setup(sys)
		}
	case "scf30":
		c.IONodes = nio(16)
		if b.m, err = machine.ParagonLarge(c.IONodes); err != nil {
			return Request{}, err
		}
		var ok bool
		if b.est.Input, ok = scfDecks[input]; !ok {
			return Request{}, fmt.Errorf("serve: unknown input %q", req.Input)
		}
		c.Input = input
		c.CachedPct = req.CachedPct
		if strings.EqualFold(strings.TrimSpace(req.Version), "direct") {
			if c.CachedPct != 0 {
				return Request{}, fmt.Errorf("serve: scf30 version direct caches no integrals, not cached_pct %d", req.CachedPct)
			}
			c.Version = "direct"
		} else if c.CachedPct == 0 {
			c.CachedPct = 90
		}
		if c.CachedPct < 0 || c.CachedPct > 100 {
			return Request{}, fmt.Errorf("serve: cached_pct %d out of range", req.CachedPct)
		}
		if n, c.N, err = size("n", req.N, b.est.Input.N); err != nil {
			return Request{}, err
		}
		b.est.Input.N = n
		b.setup = func(b *binding, sys *core.System) (core.Body, error) {
			return scf.Config30{Input: b.est.Input, CachedPct: b.est.CachedPct, Balance: true}.Setup(sys)
		}
	case "fft":
		c.IONodes = nio(2)
		if b.m, err = machine.ParagonSmall(c.IONodes); err != nil {
			return Request{}, err
		}
		c.Opt = req.Opt
		if n, c.N, err = size("n", req.N, fft.DefaultN); err != nil {
			return Request{}, err
		}
		var buf int
		if buf, c.BufferKB, err = size("buffer_kb", req.BufferKB, fft.DefaultBufferBytes>>10); err != nil {
			return Request{}, err
		}
		b.est.N, b.est.BufferBytes = int64(n), int64(buf)<<10
		if b.est.BufferBytes < b.est.N*fft.ElemBytes {
			return Request{}, fmt.Errorf("serve: fft buffer_kb %d cannot hold one column of n=%d", buf, n)
		}
		if n < c.Procs {
			return Request{}, fmt.Errorf("serve: fft n=%d is smaller than %d procs", n, c.Procs)
		}
		b.setup = func(b *binding, sys *core.System) (core.Body, error) {
			return fft.Config{N: b.est.N, BufferBytes: b.est.BufferBytes, OptimizedLayout: b.est.Opt}.Setup(sys)
		}
	case "btio":
		// The SP2 partition is fixed; IONodes stays 0 in canonical form.
		if !isSquare(c.Procs) {
			return Request{}, fmt.Errorf("serve: btio needs a square process count, got %d", c.Procs)
		}
		cls := strings.ToUpper(strings.TrimSpace(req.Class))
		switch cls {
		case "", "A":
			cls, b.est.Class = "A", btio.ClassA
		case "B":
			b.est.Class = btio.ClassB
		default:
			return Request{}, fmt.Errorf("serve: unknown btio class %q", req.Class)
		}
		c.Class = cls
		c.Opt = req.Opt
		if b.m, err = machine.SP2(); err != nil {
			return Request{}, err
		}
		if n, c.N, err = size("n", req.N, int(b.est.Class.N)); err != nil {
			return Request{}, err
		}
		b.est.Class.N = int64(n)
		if b.est.Class.Dumps, c.Dumps, err = size("dumps", req.Dumps, b.est.Class.Dumps); err != nil {
			return Request{}, err
		}
		b.setup = func(b *binding, sys *core.System) (core.Body, error) {
			return btio.Config{Class: b.est.Class, Collective: b.est.Opt}.Setup(sys)
		}
	case "ast":
		c.IONodes = nio(16)
		if b.m, err = machine.ParagonLarge(c.IONodes); err != nil {
			return Request{}, err
		}
		c.Opt = req.Opt
		if n, c.N, err = size("n", req.N, ast.DefaultN); err != nil {
			return Request{}, err
		}
		b.est.N = int64(n)
		if n < c.Procs {
			return Request{}, fmt.Errorf("serve: ast n=%d is smaller than %d procs", n, c.Procs)
		}
		if b.est.Arrays, c.Arrays, err = size("arrays", req.Arrays, ast.DefaultArrays); err != nil {
			return Request{}, err
		}
		if b.est.Dumps, c.Dumps, err = size("dumps", req.Dumps, ast.DefaultDumps); err != nil {
			return Request{}, err
		}
		b.setup = func(b *binding, sys *core.System) (core.Body, error) {
			return ast.Config{N: b.est.N, Arrays: b.est.Arrays, Dumps: b.est.Dumps, Optimized: b.est.Opt}.Setup(sys)
		}
	case "trace":
		// The trace itself fixes the rank count; Procs is cleared so
		// every spelling of a replay shares one key. TraceData is
		// transport (see the field) and never reaches the canonical form.
		c.Procs = 0
		c.IONodes = nio(12)
		if b.m, err = machine.ParagonLarge(c.IONodes); err != nil {
			return Request{}, err
		}
		h := strings.ToLower(strings.TrimSpace(req.Trace))
		if !IsTraceHash(h) {
			return Request{}, fmt.Errorf("serve: app trace needs trace=<sha256> (64 hex chars), got %q", req.Trace)
		}
		c.Trace = h
		v := strings.ToLower(strings.TrimSpace(req.Version))
		if v == "" {
			v = "native"
		}
		if !traceIfaces[v] {
			return Request{}, fmt.Errorf("serve: unknown trace interface %q (fortran|passion|native)", req.Version)
		}
		c.Version = v
		c.Opt = req.Opt
		b.unpriced = "trace replays"
	default:
		return Request{}, fmt.Errorf("serve: unknown app %q (scf11|scf30|fft|btio|ast|trace)", req.App)
	}
	if c.Procs > b.m.NumCompute {
		// A trace's rank count is its own (Procs is cleared above), so
		// this refuses only what no run of the app could place.
		return Request{}, fmt.Errorf("serve: %d procs exceed the %d compute nodes of %s", c.Procs, b.m.NumCompute, b.m.Name)
	}
	if req.Faults != "" {
		if b.plan, err = fault.Parse(req.Faults); err != nil {
			return Request{}, err
		}
		// The canonical DSL rendering keys the cache: "200ms" and "0.2s"
		// fold onto one entry, while any injection at all keeps the key
		// distinct from the healthy run's.
		c.Faults = b.plan.String()
	}
	b.est.App, b.est.Procs, b.est.Opt, b.est.CachedPct = c.App, c.Procs, c.Opt, c.CachedPct
	return c, nil
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
