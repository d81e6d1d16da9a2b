package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pario/internal/core"
	"pario/internal/request"
)

// SweepSpec names a grid of simulation runs: every field is a term list
// over the corresponding Request field, and the sweep is their cross
// product. Term-list grammar (int fields):
//
//	4              one value
//	1,2,4,8        comma list
//	1..16          inclusive range, step 1
//	2..32..2       inclusive range, additive step
//	1..64..x2      inclusive range, multiplicative step (powers)
//
// Bool fields take "true", "false", "both" or a comma list; string fields
// take comma lists. An empty field means the app's paper default, exactly
// as the zero value does on Request. Grid points that name an invalid
// configuration (e.g. an I/O-partition size the machine does not offer)
// are skipped and counted, so "ionodes=1..16" sweeps exactly the valid
// partitions; points that canonicalize onto an already-expanded content
// address are deduped (e.g. btio ignores ionodes entirely).
type SweepSpec struct {
	App       string `json:"app"`
	Procs     string `json:"procs,omitempty"`
	IONodes   string `json:"ionodes,omitempty"`
	Opt       string `json:"opt,omitempty"`
	Input     string `json:"input,omitempty"`
	Version   string `json:"version,omitempty"`
	CachedPct string `json:"cached_pct,omitempty"`
	Class     string `json:"class,omitempty"`
	// Faults is a single fault-plan DSL string applied to every point
	// (the DSL's own separators preclude a comma list).
	Faults string `json:"faults,omitempty"`
	// Trace is a single trace content hash applied to every point (app
	// "trace" only): sweep the replay interface and opt dimensions over one
	// uploaded workload. The trace must already be registered on the node.
	Trace string `json:"trace,omitempty"`
}

// SweepPoint is one expanded, canonicalized, deduplicated grid point.
type SweepPoint struct {
	// Index is the point's position in expansion order — the "point"
	// field on its streamed result line.
	Index int
	// Req is the canonical request; Key its content address.
	Req request.Request
	Key string
}

// rawGridFactor bounds the raw (pre-skip, pre-dedupe) grid relative to the
// point budget: expansion canonicalizes every raw combination, so the raw
// grid is capped too, just far more loosely.
const rawGridFactor = 64

// ExpandSweep expands spec into canonical points, skipping invalid grid
// combinations and deduplicating identical content addresses. It errors
// when the expansion exceeds maxPoints, when any term fails to parse, or
// when no grid point is valid at all (surfacing the first point's error —
// an all-invalid sweep is a spelled-wrong sweep, not an empty result).
func ExpandSweep(spec SweepSpec, maxPoints int) (points []SweepPoint, skipped, deduped int, err error) {
	apps := parseStrTerms(spec.App)
	if len(apps) == 1 && apps[0] == "" {
		return nil, 0, 0, fmt.Errorf("serve: sweep needs app=")
	}
	procs, err := parseIntTerms("procs", spec.Procs, maxPoints*rawGridFactor)
	if err != nil {
		return nil, 0, 0, err
	}
	ionodes, err := parseIntTerms("ionodes", spec.IONodes, maxPoints*rawGridFactor)
	if err != nil {
		return nil, 0, 0, err
	}
	cachedPct, err := parseIntTerms("cached_pct", spec.CachedPct, maxPoints*rawGridFactor)
	if err != nil {
		return nil, 0, 0, err
	}
	opts, err := parseBoolTerms("opt", spec.Opt)
	if err != nil {
		return nil, 0, 0, err
	}
	inputs := parseStrTerms(spec.Input)
	versions := parseStrTerms(spec.Version)
	classes := parseStrTerms(spec.Class)

	raw := len(apps) * len(procs) * len(ionodes) * len(opts) * len(inputs) * len(versions) * len(cachedPct) * len(classes)
	if raw > maxPoints*rawGridFactor {
		return nil, 0, 0, fmt.Errorf("serve: sweep grid has %d raw combinations, cap %d", raw, maxPoints*rawGridFactor)
	}

	seen := make(map[string]struct{})
	var firstErr error
	for _, app := range apps {
		for _, p := range procs {
			for _, n := range ionodes {
				for _, o := range opts {
					for _, in := range inputs {
						for _, v := range versions {
							for _, cp := range cachedPct {
								for _, cl := range classes {
									req := request.Request{
										App: app, Procs: p, IONodes: n, Opt: o,
										Input: in, Version: v, CachedPct: cp, Class: cl,
										Faults: spec.Faults, Trace: spec.Trace,
									}
									c, cerr := request.Canonicalize(req)
									if cerr != nil {
										if firstErr == nil {
											firstErr = cerr
										}
										skipped++
										continue
									}
									k := c.Key()
									if _, dup := seen[k]; dup {
										deduped++
										continue
									}
									seen[k] = struct{}{}
									if len(points) >= maxPoints {
										return nil, 0, 0, fmt.Errorf("serve: sweep expands past %d points", maxPoints)
									}
									points = append(points, SweepPoint{Index: len(points), Req: c, Key: k})
								}
							}
						}
					}
				}
			}
		}
	}
	if len(points) == 0 {
		if firstErr != nil {
			return nil, 0, 0, fmt.Errorf("serve: no valid sweep point: %w", firstErr)
		}
		return nil, 0, 0, fmt.Errorf("serve: empty sweep")
	}
	return points, skipped, deduped, nil
}

// parseIntTerms parses an int term list (see SweepSpec); empty means the
// single zero value, i.e. the app default.
func parseIntTerms(name, s string, cap int) ([]int, error) {
	if s == "" {
		return []int{0}, nil
	}
	var out []int
	for _, term := range strings.Split(s, ",") {
		term = strings.TrimSpace(term)
		parts := strings.Split(term, "..")
		switch len(parts) {
		case 1:
			n, err := strconv.Atoi(term)
			if err != nil {
				return nil, fmt.Errorf("serve: sweep %s term %q: %w", name, term, err)
			}
			out = append(out, n)
		case 2, 3:
			lo, err := strconv.Atoi(parts[0])
			if err != nil {
				return nil, fmt.Errorf("serve: sweep %s range %q: %w", name, term, err)
			}
			hi, err := strconv.Atoi(parts[1])
			if err != nil {
				return nil, fmt.Errorf("serve: sweep %s range %q: %w", name, term, err)
			}
			if hi < lo {
				return nil, fmt.Errorf("serve: sweep %s range %q is descending", name, term)
			}
			step, factor := 1, 0
			if len(parts) == 3 {
				if f, ok := strings.CutPrefix(parts[2], "x"); ok {
					factor, err = strconv.Atoi(f)
					if err != nil || factor < 2 {
						return nil, fmt.Errorf("serve: sweep %s range %q: factor must be an int >= 2", name, term)
					}
				} else {
					step, err = strconv.Atoi(parts[2])
					if err != nil || step < 1 {
						return nil, fmt.Errorf("serve: sweep %s range %q: step must be an int >= 1", name, term)
					}
				}
			}
			if factor > 0 && lo < 1 {
				return nil, fmt.Errorf("serve: sweep %s range %q: multiplicative range needs lo >= 1", name, term)
			}
			for v := lo; v <= hi; {
				out = append(out, v)
				if len(out) > cap {
					return nil, fmt.Errorf("serve: sweep %s expands past %d values", name, cap)
				}
				if factor > 0 {
					v *= factor
				} else {
					v += step
				}
			}
		default:
			return nil, fmt.Errorf("serve: sweep %s term %q: want v, lo..hi, lo..hi..step or lo..hi..xK", name, term)
		}
		if len(out) > cap {
			return nil, fmt.Errorf("serve: sweep %s expands past %d values", name, cap)
		}
	}
	return out, nil
}

// parseBoolTerms parses a bool term list; empty means the single false
// (default) value, "both" sweeps false then true.
func parseBoolTerms(name, s string) ([]bool, error) {
	switch strings.TrimSpace(s) {
	case "":
		return []bool{false}, nil
	case "both":
		return []bool{false, true}, nil
	}
	var out []bool
	for _, term := range strings.Split(s, ",") {
		b, err := strconv.ParseBool(strings.TrimSpace(term))
		if err != nil {
			return nil, fmt.Errorf("serve: sweep %s term %q: %w", name, term, err)
		}
		out = append(out, b)
	}
	return out, nil
}

// parseStrTerms splits a comma list, trimming space; empty means the
// single empty (default) value.
func parseStrTerms(s string) []string {
	if strings.TrimSpace(s) == "" {
		return []string{""}
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// SweepLine is one streamed sweep record: a completed point, in completion
// order. Body holds the point's exact /run response body — byte-identical,
// including its trailing newline — as a JSON string, so a stream line stays
// one line while round-tripping the body losslessly.
type SweepLine struct {
	Point int    `json:"point"`
	Key   string `json:"key"`
	Cache string `json:"cache,omitempty"` // hit | l2 | miss | shared
	Body  string `json:"body,omitempty"`
	Error string `json:"error,omitempty"`
	Class string `json:"class,omitempty"` // core.ErrorClass taxonomy on failures
}

// SweepSummary is the trailing record that closes every sweep stream.
type SweepSummary struct {
	Done      bool `json:"done"`
	Points    int  `json:"points"`
	OK        int  `json:"ok"`
	Failed    int  `json:"failed"`
	Canceled  int  `json:"canceled"`
	CacheHits int  `json:"cache_hits"`
	Deduped   int  `json:"deduped"`
	Skipped   int  `json:"skipped"`
}

// decodeSweep reads a sweep spec from JSON body (POST) or query parameters
// (GET), plus the per-point ?timeout_sec= override, the stream format and
// the ?mode= selector (exact simulation vs analytic estimate).
func decodeSweep(r *http.Request) (spec SweepSpec, timeout time.Duration, sse, estimate bool, err error) {
	switch r.Method {
	case http.MethodPost:
		dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			return SweepSpec{}, 0, false, false, fmt.Errorf("decoding sweep body: %w", err)
		}
	case http.MethodGet:
		q := r.URL.Query()
		spec = SweepSpec{
			App: q.Get("app"), Procs: q.Get("procs"), IONodes: q.Get("ionodes"),
			Opt: q.Get("opt"), Input: q.Get("input"), Version: q.Get("version"),
			CachedPct: q.Get("cached_pct"), Class: q.Get("class"), Faults: q.Get("faults"),
			Trace: q.Get("trace"),
		}
	default:
		return SweepSpec{}, 0, false, false, fmt.Errorf("method %s not allowed", r.Method)
	}
	timeout, err = parseTimeoutSec(r.URL.Query().Get("timeout_sec"))
	if err != nil {
		return SweepSpec{}, 0, false, false, err
	}
	switch f := r.URL.Query().Get("format"); f {
	case "", "ndjson":
	case "sse":
		sse = true
	default:
		return SweepSpec{}, 0, false, false, fmt.Errorf("parameter format: %q (ndjson|sse)", f)
	}
	estimate, err = parseMode(r.URL.Query().Get("mode"))
	if err != nil {
		return SweepSpec{}, 0, false, false, err
	}
	return spec, timeout, sse, estimate, nil
}

// handleSweep is the batch endpoint: expand the grid server-side, dedupe
// each point against the content-addressed cache, run the misses on the
// batch lane, and stream per-point results as they complete — partial
// results beat a blank wait, and one sweep seeds the cache for every later
// interactive request on the grid.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if s.draining.Load() {
		writeErrJSON(w, http.StatusServiceUnavailable, "draining", errors.New("server draining"))
		return
	}
	spec, timeout, sse, estimate, err := decodeSweep(r)
	if err != nil {
		s.badRequest(w, r, err)
		return
	}
	points, skipped, deduped, err := ExpandSweep(spec, s.opts.MaxSweepPoints)
	if err != nil {
		s.badRequest(w, r, err)
		return
	}
	// Sweep admission is bounded separately from the interactive queue:
	// excess sweeps shed with a Retry-After sized from the batch lane's
	// own backlog, and interactive /run traffic never sees either bound.
	if n := s.sweepsActive.Add(1); n > int64(s.opts.MaxSweeps) {
		s.sweepsActive.Add(-1)
		s.sweepsRejected.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSec(LaneBatch)))
		writeErrJSON(w, http.StatusTooManyRequests, "busy", errors.New("too many concurrent sweeps, retry later"))
		return
	}
	defer s.sweepsActive.Add(-1)
	s.sweepsTotal.Add(1)
	s.sweepPointsTotal.Add(int64(len(points)))
	s.sweepDedupedTotal.Add(int64(deduped))
	s.sweepSkippedTotal.Add(int64(skipped))

	h := w.Header()
	if sse {
		h.Set("Content-Type", "text/event-stream")
	} else {
		h.Set("Content-Type", "application/x-ndjson")
	}
	h.Set("Cache-Control", "no-store")
	h.Set("X-Pario-Sweep-Points", strconv.Itoa(len(points)))
	h.Set("X-Pario-Sweep-Deduped", strconv.Itoa(deduped))
	h.Set("X-Pario-Sweep-Skipped", strconv.Itoa(skipped))
	flusher, _ := w.(http.Flusher)

	var emitMu sync.Mutex
	emit := func(v any) {
		b, err := json.Marshal(v)
		if err != nil {
			return
		}
		emitMu.Lock()
		defer emitMu.Unlock()
		if sse {
			w.Write([]byte("data: "))
		}
		w.Write(b)
		w.Write([]byte("\n"))
		if sse {
			w.Write([]byte("\n"))
		}
		if flusher != nil {
			flusher.Flush()
		}
	}

	if estimate {
		// Estimate fast path: every point is a closed-form evaluation, so
		// the whole grid is answered inline — no batch lane, no scheduler
		// slots, runs_total unmoved. Fault-plan points are outside the
		// analytic domain and stream as per-point errors.
		s.sweepEstimate(points, skipped, deduped, emit)
		return
	}

	ctx := r.Context()
	var okCount, failed, canceled, hits atomic.Int64
	var wg sync.WaitGroup
	for _, p := range points {
		wg.Add(1)
		go func(p SweepPoint) {
			defer wg.Done()
			body, source, _, err := s.point(ctx, p.Req, p.Key, timeout, LaneBatch, false)
			switch {
			case err == nil:
				okCount.Add(1)
				if cached(source) {
					hits.Add(1)
					s.sweepCachedTotal.Add(1)
				}
				emit(SweepLine{Point: p.Index, Key: p.Key, Cache: source, Body: string(body)})
			case ctx.Err() != nil, core.ErrorClass(err) == "canceled":
				canceled.Add(1)
				s.sweepCanceledTotal.Add(1)
				emit(SweepLine{Point: p.Index, Key: p.Key, Error: err.Error(), Class: "canceled"})
			default:
				failed.Add(1)
				s.sweepFailedTotal.Add(1)
				class := core.ErrorClass(err)
				s.countErrClass(class)
				emit(SweepLine{Point: p.Index, Key: p.Key, Error: err.Error(), Class: class})
			}
		}(p)
	}
	wg.Wait()
	emit(SweepSummary{
		Done: true, Points: len(points), OK: int(okCount.Load()),
		Failed: int(failed.Load()), Canceled: int(canceled.Load()),
		CacheHits: int(hits.Load()), Deduped: deduped, Skipped: skipped,
	})
}

// sweepEstimate streams the analytic answer for every grid point, in
// expansion order. Each line's key is the estimate-mode content address, so
// the streamed bodies are the same bytes /run?mode=estimate would serve.
func (s *Server) sweepEstimate(points []SweepPoint, skipped, deduped int, emit func(any)) {
	start := time.Now()
	s.estimates.Add(int64(len(points)))
	var okCount, failed, hits int
	for _, p := range points {
		body, source, key, err := s.estimateBody(p.Req)
		if err != nil {
			failed++
			s.sweepFailedTotal.Add(1)
			s.estimateFailed.Add(1)
			class := core.ErrorClass(err)
			s.countErrClass(class)
			emit(SweepLine{Point: p.Index, Key: key, Error: err.Error(), Class: class})
			continue
		}
		okCount++
		if source == "hit" {
			hits++
			s.sweepCachedTotal.Add(1)
			s.estimateHits.Add(1)
		}
		emit(SweepLine{Point: p.Index, Key: key, Cache: source, Body: string(body)})
	}
	s.estimateLatNs.Add(time.Since(start).Nanoseconds())
	emit(SweepSummary{
		Done: true, Points: len(points), OK: okCount,
		Failed: failed, CacheHits: hits, Deduped: deduped, Skipped: skipped,
	})
}
