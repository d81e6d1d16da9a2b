package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pario/internal/cluster"
	"pario/internal/core"
	"pario/internal/diskcache"
	"pario/internal/exp"
	"pario/internal/stats"
)

// Options configures a Server. Zero and negative values select the
// defaults noted on each field — a negative bound is never silently
// clamped to a 1-deep queue or an already-expired timeout.
type Options struct {
	// Workers is the simulation worker-pool size (default: GOMAXPROCS).
	Workers int
	// QueueDepth is the interactive (/run) admission queue bound; a full
	// queue answers 429 (default 64).
	QueueDepth int
	// BatchQueueDepth is the batch (/sweep) lane's queue bound. Sweep
	// feeders block on it rather than shed, so it is flow control, not a
	// failure bound (default 256).
	BatchQueueDepth int
	// CacheEntries bounds the LRU result cache (default 512).
	CacheEntries int
	// CacheBytes additionally bounds the LRU result cache by total body
	// bytes; 0 keeps the entry bound only. Under mixed traffic the byte
	// bound is the real memory cap — 4096 large sweep bodies and 4096 tiny
	// ones are not the same footprint.
	CacheBytes int64
	// L2 is an optional persistent second-level cache (internal/diskcache)
	// backing the in-memory LRU: L1 misses consult it, fresh and proxied
	// bodies fill it, and a restarted node answers every key it has ever
	// simulated without re-running the kernel. The caller opens it (and
	// owns recovery errors); nil disables the tier.
	L2 *diskcache.Cache
	// Cluster is the optional peer ring (internal/cluster): when set, this
	// server only simulates keys it owns and proxies the rest to their
	// owners (see cluster.go). nil means single-node. Tests that learn
	// their listen addresses late can install it via SetCluster instead.
	Cluster *cluster.Ring
	// Timeout is the per-request ceiling, cancellation included; a
	// request may ask for less via ?timeout_sec= but never more
	// (default 60s).
	Timeout time.Duration
	// MaxSweepPoints bounds one sweep's expanded grid (default 4096).
	MaxSweepPoints int
	// MaxSweeps bounds concurrently streaming sweeps; excess sweeps are
	// shed with 429 (default 4).
	MaxSweeps int
	// TraceStoreBytes bounds the uploaded-trace registry by total
	// canonical-encoding bytes, LRU-evicted (default 256 MB).
	TraceStoreBytes int64
	// TraceMaxBytes bounds one trace upload — POST /trace body or an
	// inline trace_data payload, pre-decode (default 32 MB).
	TraceMaxBytes int64
}

func (o *Options) defaults() {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.BatchQueueDepth <= 0 {
		o.BatchQueueDepth = 256
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = 512
	}
	if o.Timeout <= 0 {
		o.Timeout = 60 * time.Second
	}
	if o.MaxSweepPoints <= 0 {
		o.MaxSweepPoints = 4096
	}
	if o.MaxSweeps <= 0 {
		o.MaxSweeps = 4
	}
	if o.TraceStoreBytes <= 0 {
		o.TraceStoreBytes = 256 << 20
	}
	if o.TraceMaxBytes <= 0 {
		o.TraceMaxBytes = 32 << 20
	}
}

// Server is the simulation-serving daemon core: HTTP handlers over the
// cache → singleflight → scheduler pipeline. Construct with New; serve via
// Handler (any http server) or Start/Shutdown (managed listener with
// graceful drain).
type Server struct {
	opts   Options
	cache  *Cache
	l2     *diskcache.Cache
	traces *TraceStore
	flight flightGroup
	sched  *Scheduler
	mux    *http.ServeMux

	// ring is the cluster peer map (nil = single-node); peerTransport is
	// shared by every proxy exchange.
	ring          atomic.Pointer[cluster.Ring]
	peerTransport *http.Transport

	// run is the execution seam: Execute in production, replaceable in
	// tests that need slow or failing runs.
	run func(ctx context.Context, req Request) (core.Report, error)

	httpSrv  *http.Server
	started  time.Time
	draining atomic.Bool

	// Response-outcome counters. requests counts every /run, /sweep and
	// /trace request, badReq every one refused as malformed. A /run whose
	// point this node answered moves exactly one of hit/miss/shared/
	// rejected/canceled/failed (none on a 503 while draining); one relayed
	// from the key's owner moves only peerProxied, since the owner counted
	// its outcome; an estimate moves the estimate counters instead.
	requests atomic.Int64
	hit      atomic.Int64
	miss     atomic.Int64
	sharedOK atomic.Int64
	rejected atomic.Int64
	badReq   atomic.Int64
	canceled atomic.Int64
	failed   atomic.Int64

	// Sweep counters: grids admitted, points expanded, and per-point
	// outcomes. sweepPointsTotal counts post-dedupe points, so across a
	// sweep sweep_points_total moves by exactly the streamed line count.
	sweepsActive       atomic.Int64
	sweepsTotal        atomic.Int64
	sweepsRejected     atomic.Int64
	sweepPointsTotal   atomic.Int64
	sweepDedupedTotal  atomic.Int64
	sweepSkippedTotal  atomic.Int64
	sweepCachedTotal   atomic.Int64
	sweepFailedTotal   atomic.Int64
	sweepCanceledTotal atomic.Int64

	// Cluster counters: requests this node forwarded to an owner, forwarded
	// requests this node served as owner, owner exchanges that failed,
	// keys run locally because their owner was unavailable, and forwarded
	// requests whose key this node does not own (peer lists disagree; the
	// loop guard served them locally rather than re-forwarding).
	peerProxied       atomic.Int64
	peerServed        atomic.Int64
	peerProxyErr      atomic.Int64
	peerLocalFallback atomic.Int64
	peerLoopGuard     atomic.Int64

	// l2PutErrs counts disk-cache write failures: the response was still
	// served (and L1-cached), only persistence was lost.
	l2PutErrs atomic.Int64

	// Trace counters: uploads accepted (POST /trace and inline
	// trace_data, re-uploads included) and replay attempts refused
	// because the named hash is not in this node's store.
	traceUploads atomic.Int64
	traceUnknown atomic.Int64

	// Work counters: what actually simulated. The cached path must leave
	// runs untouched — that is the "never re-simulates" invariant the
	// load smoke asserts.
	runs      atomic.Int64
	runEvents atomic.Uint64
	runWallNs atomic.Int64

	// Estimate-mode counters. Estimates never move the run counters —
	// the analytic path consumes no scheduler slot by construction, and
	// the estimate smoke asserts runs_total stays flat under -estimate.
	estimates      atomic.Int64
	estimateHits   atomic.Int64
	estimateFailed atomic.Int64
	estimateLatNs  atomic.Int64

	// runDurEWMA is an exponentially weighted moving average of recent run
	// durations (real time, in ns), feeding the Retry-After estimate on
	// 429s. Zero until the first run completes; retryAfterSec seeds a
	// cold estimate from the oldest pending job's wait (see pending).
	runDurEWMA atomic.Int64

	// pending tracks the enqueue time of every request currently waiting
	// on (or occupying) the scheduler, so a cold instance whose queue
	// fills before any run completes can still derive a backlog-aware
	// Retry-After from how long the head job has been waiting.
	pending struct {
		mu  sync.Mutex
		seq int64
		m   map[int64]time.Time
	}

	// errClasses counts failed runs by core.ErrorClass, the failure
	// taxonomy surfaced in structured 500 bodies and /metrics.
	errClasses struct {
		mu sync.Mutex
		m  map[string]int64
	}

	sim struct {
		mu   sync.Mutex
		snap *stats.Snapshot
	}
}

// New returns a ready Server; callers then use Handler or Start.
func New(opts Options) *Server {
	opts.defaults()
	s := &Server{
		opts:          opts,
		cache:         NewCacheBytes(opts.CacheEntries, opts.CacheBytes),
		l2:            opts.L2,
		traces:        NewTraceStore(opts.TraceStoreBytes),
		sched:         NewScheduler(opts.Workers, opts.QueueDepth, opts.BatchQueueDepth),
		peerTransport: &http.Transport{MaxIdleConnsPerHost: 16},
		started:       time.Now(),
	}
	// The production seam resolves app-"trace" requests against the upload
	// store; everything else goes straight to Execute. Tests still
	// replace s.run wholesale.
	s.run = s.executeRun
	s.SetCluster(opts.Cluster)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/run", s.handleRun)
	s.mux.HandleFunc("/sweep", s.handleSweep)
	s.mux.HandleFunc("/trace", s.handleTrace)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on addr (":0" picks a free port) and serves in the
// background, returning the bound address.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.httpSrv = &http.Server{Handler: s.mux}
	go func() {
		// ErrServerClosed is the normal Shutdown outcome; anything else
		// would surface on the next request anyway.
		_ = s.httpSrv.Serve(ln)
	}()
	return ln.Addr(), nil
}

// Shutdown drains gracefully: stop accepting, wait (bounded by ctx) for
// in-flight requests to finish — their responses are written in full — then
// retire the worker pool. After Shutdown, submissions fail with 503.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	if s.httpSrv != nil {
		if err := s.httpSrv.Shutdown(ctx); err != nil {
			return err
		}
	}
	s.sched.Close()
	return nil
}

// cacheGet layers the two cache tiers: the in-memory LRU first, then the
// disk cache, promoting a disk hit into memory. The source names the tier
// that answered ("hit" = L1, "l2" = disk) and travels out on X-Pario-Cache,
// so the restart smoke can prove a warm answer came from disk.
func (s *Server) cacheGet(key string) (body []byte, source string, ok bool) {
	if body, ok := s.cache.Get(key); ok {
		return body, "hit", true
	}
	if s.l2 != nil {
		if body, ok := s.l2.Get(key); ok {
			s.cache.Put(key, body)
			return body, "l2", true
		}
	}
	return nil, "", false
}

// cachePut banks a response body in both tiers. A disk write failure is
// counted, not surfaced: the caller already has the body, and losing
// persistence must never fail a request.
func (s *Server) cachePut(key string, body []byte) {
	s.cache.Put(key, body)
	if s.l2 != nil {
		if err := s.l2.Put(key, body); err != nil {
			s.l2PutErrs.Add(1)
		}
	}
}

// runJob is the expensive path: simulate, encode, fill the cache. It runs
// on a scheduler worker, as a one-point sweep through the experiment
// runner, so run accounting (points, kernel events, wall time) follows the
// same contract as the sweep harness.
func (s *Server) runJob(ctx context.Context, req Request, key string) ([]byte, error) {
	start := time.Now()
	reps, st, err := exp.Map([]Request{req}, 1, func(r Request) (core.Report, error) {
		return s.run(ctx, r)
	})
	s.recordRunDur(time.Since(start))
	s.runs.Add(int64(st.Points))
	s.runEvents.Add(st.Events)
	s.runWallNs.Add(int64(st.WallSum))
	if err != nil {
		return nil, err
	}
	body, err := Encode(req, reps[0])
	if err != nil {
		return nil, err
	}
	// Fill before responding: even if the client has gone away, the work
	// is banked — in memory and on disk — for the next identical request,
	// on this process or the one that replaces it after a restart.
	s.cachePut(key, body)
	if snap := reps[0].Stats; snap != nil {
		s.sim.mu.Lock()
		if s.sim.snap == nil {
			s.sim.snap = &stats.Snapshot{}
		}
		s.sim.snap.Merge(snap)
		s.sim.mu.Unlock()
	}
	return body, nil
}

// parseTimeoutSec validates a ?timeout_sec= value. Non-finite values and
// values whose nanosecond conversion overflows time.Duration are rejected
// outright — an overflowed conversion can yield a garbage (even negative)
// deadline that would dodge the documented "never more than the server
// Timeout" cap. Empty means no override.
func parseTimeoutSec(v string) (time.Duration, error) {
	if v == "" {
		return 0, nil
	}
	sec, err := strconv.ParseFloat(v, 64)
	if err != nil || math.IsNaN(sec) || math.IsInf(sec, 0) || sec <= 0 {
		return 0, fmt.Errorf("parameter timeout_sec: %q", v)
	}
	if ns := sec * float64(time.Second); ns >= float64(math.MaxInt64) {
		return 0, fmt.Errorf("parameter timeout_sec: %q overflows", v)
	}
	return time.Duration(sec * float64(time.Second)), nil
}

// decodeRequest reads a run request from JSON body (POST) or query
// parameters (GET), plus the optional ?timeout_sec= override.
func decodeRequest(r *http.Request) (Request, time.Duration, error) {
	var req Request
	switch r.Method {
	case http.MethodPost:
		dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return Request{}, 0, fmt.Errorf("decoding request body: %w", err)
		}
	case http.MethodGet:
		q := r.URL.Query()
		req.App = q.Get("app")
		req.Input = q.Get("input")
		req.Version = q.Get("version")
		req.Class = q.Get("class")
		req.Faults = q.Get("faults")
		req.Trace = q.Get("trace")
		// A fixed order, so a query with several bad parameters is always
		// refused naming the same one.
		for _, p := range []struct {
			name string
			dst  *int
		}{{"procs", &req.Procs}, {"ionodes", &req.IONodes}, {"cached_pct", &req.CachedPct}} {
			if v := q.Get(p.name); v != "" {
				n, err := strconv.Atoi(v)
				if err != nil {
					return Request{}, 0, fmt.Errorf("parameter %s: %w", p.name, err)
				}
				*p.dst = n
			}
		}
		if v := q.Get("opt"); v != "" {
			b, err := strconv.ParseBool(v)
			if err != nil {
				return Request{}, 0, fmt.Errorf("parameter opt: %w", err)
			}
			req.Opt = b
		}
	default:
		return Request{}, 0, fmt.Errorf("method %s not allowed", r.Method)
	}
	timeout, err := parseTimeoutSec(r.URL.Query().Get("timeout_sec"))
	if err != nil {
		return Request{}, 0, err
	}
	return req, timeout, nil
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	req, timeout, err := decodeRequest(r)
	if err != nil {
		s.badRequest(w, r, err)
		return
	}
	estimate, err := parseMode(r.URL.Query().Get("mode"))
	if err != nil {
		s.badRequest(w, r, err)
		return
	}
	if err := s.registerInlineTrace(&req); err != nil {
		s.badRequest(w, r, err)
		return
	}
	canon, err := Canonicalize(req)
	if err != nil {
		s.badRequest(w, r, err)
		return
	}
	if estimate {
		s.handleEstimate(w, canon)
		return
	}
	key := canon.Key()

	ring := s.ring.Load()
	// A forwarded request is served locally no matter what our own ring
	// says — the loop guard. Disagreeing peer lists degrade to extra local
	// work (counted), never to a forwarding cycle.
	forwarded := ring != nil && r.Header.Get(forwardedByHeader) != ""
	ln := LaneInteractive
	if forwarded && r.Header.Get(laneHeader) == "batch" {
		ln = LaneBatch
	}
	if ring != nil {
		// Name the key's owner on every cluster-mode response — even cache
		// hits and errors — so clients and smoke tests can observe the
		// sharding without consulting the ring themselves.
		w.Header().Set(ownerHeader, ring.Owner(key).URL)
	}

	body, source, relayed, err := s.point(r.Context(), canon, key, timeout, ln, forwarded)
	// A forwarded request answered from this node's cache counts as a hit
	// only; every other one was served here as the owner.
	if forwarded && (err != nil || !cached(source)) {
		s.peerServed.Add(1)
		if !ring.IsOwner(key) {
			s.peerLoopGuard.Add(1)
		}
	}
	var owner *ownerError
	switch {
	case err == nil:
		switch {
		case relayed: // the owner counted it
		case cached(source):
			s.hit.Add(1)
		case source == "miss":
			s.miss.Add(1)
		default:
			s.sharedOK.Add(1)
		}
		s.respond(w, key, source, body)
	case errors.As(err, &owner):
		// The owner's own answer, relayed verbatim; the owner counted it.
		owner.relay(w)
	case errors.Is(err, ErrBusy):
		s.rejected.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSec(ln)))
		writeErrJSON(w, http.StatusTooManyRequests, "busy", errors.New("queue full, retry later"))
	case errors.Is(err, ErrDraining):
		writeErrJSON(w, http.StatusServiceUnavailable, "draining", errors.New("server draining"))
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		s.canceled.Add(1)
		writeErrJSON(w, http.StatusGatewayTimeout, "canceled", err)
	default:
		s.failed.Add(1)
		class := core.ErrorClass(err)
		s.countErrClass(class)
		status := http.StatusInternalServerError
		if class == "trace_unknown" {
			// The named trace is simply not in this node's store — a
			// client-addressable miss, not a simulation failure.
			status = http.StatusNotFound
		}
		writeErrJSON(w, status, class, err)
	}
}

// cached reports whether a point's source names a cache tier.
func cached(source string) bool { return source == "hit" || source == "l2" }

// point is the one path every exact-mode point takes — /run, a forwarded
// /run and each /sweep point: the cache tiers, then (in cluster mode, unless
// forwarded) the key's owner, then the unknown-trace check, then
// singleflight onto lane ln and runJob. timeout is the caller's request,
// capped at (and defaulting to) Options.Timeout. source is hit or l2 (a
// cache tier), miss (this call simulated), shared (a concurrent call did),
// or the owner's X-Pario-Cache when relayed reports the body came from the
// owner; a non-200 owner answer comes back as an *ownerError. The
// interactive deadline covers singleflight, queue wait and the run; the
// batch lane blocks for admission — its queue bound is the sweep's flow
// control — and starts the deadline with the simulation.
func (s *Server) point(ctx context.Context, req Request, key string, timeout time.Duration, ln Lane, forwarded bool) (body []byte, source string, relayed bool, err error) {
	if body, source, ok := s.cacheGet(key); ok {
		return body, source, false, nil
	}
	if timeout <= 0 || timeout > s.opts.Timeout {
		timeout = s.opts.Timeout
	}
	if ring := s.ring.Load(); ring != nil && !forwarded && !ring.IsOwner(key) {
		body, source, err := s.fromOwner(ctx, ring.Owner(key), req, key, timeout, ln)
		if !errors.Is(err, errPeerUnavailable) {
			return body, source, true, err
		}
		if ctx.Err() != nil {
			// The caller is gone; nobody is owed a fallback simulation.
			return nil, "", false, ctx.Err()
		}
		// Owner down: run the key here — determinism makes the body
		// identical wherever it is computed.
		s.peerLocalFallback.Add(1)
	}
	// A replay of a hash this node has never seen is a guaranteed failure:
	// answering it before admission keeps it off the scheduler and out of
	// the run accounting. executeRun re-resolves under the same store,
	// backstopping the rare evicted-between-check-and-run race.
	if req.App == "trace" {
		if _, ok := s.traces.Get(req.Trace); !ok {
			s.traceUnknown.Add(1)
			return nil, "", false, core.Classify("trace_unknown",
				fmt.Errorf("serve: trace %s has not been uploaded to this node", req.Trace))
		}
	}
	untrack := s.trackPending()
	defer untrack()
	submit := s.sched.SubmitWait
	if ln == LaneInteractive {
		submit = s.sched.Submit
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	body, err, leader := s.flight.Do(ctx, key, func() ([]byte, error) {
		return submit(ctx, ln, func(jctx context.Context) ([]byte, error) {
			// The batch lane's deadline; an interactive jctx already
			// carries an earlier one.
			jctx, cancel := context.WithTimeout(jctx, timeout)
			defer cancel()
			return s.runJob(jctx, req, key)
		})
	})
	switch {
	case err != nil:
		return nil, "", false, err
	case leader:
		return body, "miss", false, nil
	default:
		return body, "shared", false, nil
	}
}

// recordRunDur folds a completed run's duration into the moving average
// behind Retry-After (weight 1/5 on the newest sample; the first sample
// seeds the average).
func (s *Server) recordRunDur(d time.Duration) {
	for {
		old := s.runDurEWMA.Load()
		next := int64(d)
		if old != 0 {
			next = old - old/5 + int64(d)/5
		}
		if s.runDurEWMA.CompareAndSwap(old, next) {
			return
		}
	}
}

// trackPending registers a request that is about to wait on the scheduler
// and returns its untrack func. The oldest surviving entry's age seeds the
// Retry-After estimate while the run-duration EWMA is still cold.
func (s *Server) trackPending() func() {
	s.pending.mu.Lock()
	if s.pending.m == nil {
		s.pending.m = make(map[int64]time.Time)
	}
	s.pending.seq++
	id := s.pending.seq
	s.pending.m[id] = time.Now()
	s.pending.mu.Unlock()
	return func() {
		s.pending.mu.Lock()
		delete(s.pending.m, id)
		s.pending.mu.Unlock()
	}
}

// oldestPendingAge returns how long the oldest still-pending request has
// been waiting (zero when nothing is pending).
func (s *Server) oldestPendingAge() time.Duration {
	s.pending.mu.Lock()
	defer s.pending.mu.Unlock()
	var oldest time.Time
	for _, t := range s.pending.m {
		if oldest.IsZero() || t.Before(oldest) {
			oldest = t
		}
	}
	if oldest.IsZero() {
		return 0
	}
	return time.Since(oldest)
}

// retryAfterSec estimates when a shed request could plausibly be admitted
// to lane ln: the lane's backlog (queued plus in-flight) spread across the
// worker pool at the recent mean run duration, rounded up and floored at
// 1s. A cold instance — queue full before any run has completed — seeds
// the mean from the oldest pending job's wait, a lower bound on service
// time; only a truly idle cold instance answers the bare floor.
func (s *Server) retryAfterSec(ln Lane) int {
	mean := time.Duration(s.runDurEWMA.Load())
	if mean <= 0 {
		mean = s.oldestPendingAge()
	}
	if mean <= 0 {
		return 1
	}
	backlog := int64(s.sched.QueueDepth(ln)) + s.sched.InFlight(ln)
	est := time.Duration(backlog+1) * mean / time.Duration(s.opts.Workers)
	sec := int((est + time.Second - 1) / time.Second)
	if sec < 1 {
		sec = 1
	}
	return sec
}

func (s *Server) countErrClass(class string) {
	s.errClasses.mu.Lock()
	if s.errClasses.m == nil {
		s.errClasses.m = make(map[string]int64)
	}
	s.errClasses.m[class]++
	s.errClasses.mu.Unlock()
}

// errorBody is the structured body of every non-200 /run and /sweep
// answer: the error text plus its stable taxonomy class. Failed runs'
// classes are mirrored in /metrics' error_classes; the request-level
// classes are bad_request (400, 405), busy (429), draining (503) and
// canceled (504).
type errorBody struct {
	Error string `json:"error"`
	Class string `json:"class"`
}

func writeErrJSON(w http.ResponseWriter, status int, class string, err error) {
	// Marshal cannot fail on a struct of two strings.
	b, _ := json.Marshal(errorBody{Error: err.Error(), Class: class})
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(b, '\n'))
}

// badRequest answers a /run or /sweep that cannot be parsed: 405 for a
// method other than GET or POST, 400 for anything else.
func (s *Server) badRequest(w http.ResponseWriter, r *http.Request, err error) {
	s.badReq.Add(1)
	status := http.StatusBadRequest
	if r.Method != http.MethodPost && r.Method != http.MethodGet {
		status = http.StatusMethodNotAllowed
	}
	writeErrJSON(w, status, "bad_request", err)
}

// respond writes a run result body. source is hit (in-memory cache), l2
// (disk cache), miss (this request simulated) or shared (another in-flight
// request simulated).
func (s *Server) respond(w http.ResponseWriter, key, source string, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("X-Pario-Cache", source)
	h.Set("X-Pario-Key", key)
	h.Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body)
}

// handleHealthz separates liveness from readiness. Plain /healthz is
// liveness: 200 whenever the process can answer, draining included — a
// draining node is still alive and still finishing in-flight work, and
// restarting it for "failing health checks" would kill that work.
// /healthz?ready=1 is readiness: 503 once draining starts, so load
// balancers and cluster peers stop routing new work here. The body always
// names the state either way.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.draining.Load() {
		status = "draining"
		if v := r.URL.Query().Get("ready"); v != "" && v != "0" {
			code = http.StatusServiceUnavailable
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	fmt.Fprintf(w, "{\"status\":%q,\"uptime_sec\":%.3f}\n", status, time.Since(s.started).Seconds())
}

// Metrics is the /metrics document: serving counters alongside the
// cumulative cross-layer simulation snapshot.
type Metrics struct {
	UptimeSec float64 `json:"uptime_sec"`
	Draining  bool    `json:"draining"`

	Workers int `json:"workers"`

	// Interactive (/run) lane gauges. QueueDepth includes only admitted
	// jobs not yet running; a 429 is issued once it reaches QueueCapacity.
	QueueCapacity int   `json:"queue_capacity"`
	QueueDepth    int   `json:"queue_depth"`
	InFlight      int64 `json:"in_flight"`
	DoneTotal     int64 `json:"done_total"`

	// Batch (/sweep) lane gauges. BatchQueueDepth includes sweep feeders
	// still waiting for a slot — the lane's whole committed backlog.
	BatchQueueCapacity int   `json:"batch_queue_capacity"`
	BatchQueueDepth    int   `json:"batch_queue_depth"`
	BatchInFlight      int64 `json:"batch_in_flight"`
	BatchDoneTotal     int64 `json:"batch_done_total"`

	RequestsTotal   int64 `json:"requests_total"`
	CacheHits       int64 `json:"cache_hits"`
	CacheMisses     int64 `json:"cache_misses"`
	SharedTotal     int64 `json:"singleflight_shared_total"`
	RejectedTotal   int64 `json:"rejected_total"`
	BadRequestTotal int64 `json:"bad_request_total"`
	CanceledTotal   int64 `json:"canceled_total"`
	ErrorTotal      int64 `json:"error_total"`

	// Sweep counters. SweepPointsTotal counts expanded post-dedupe points
	// (== streamed result lines); deduped and skipped grid combinations
	// are tallied separately.
	SweepsTotal             int64 `json:"sweeps_total"`
	SweepsActive            int64 `json:"sweeps_active"`
	SweepsRejectedTotal     int64 `json:"sweeps_rejected_total"`
	SweepPointsTotal        int64 `json:"sweep_points_total"`
	SweepPointsDedupedTotal int64 `json:"sweep_points_deduped_total"`
	SweepPointsSkippedTotal int64 `json:"sweep_points_skipped_total"`
	SweepPointsCachedTotal  int64 `json:"sweep_points_cached_total"`
	SweepPointsFailedTotal  int64 `json:"sweep_points_failed_total"`
	SweepCanceledTotal      int64 `json:"sweep_canceled_total"`

	CacheEntries   int   `json:"cache_entries"`
	CacheBytes     int64 `json:"cache_bytes"`
	CacheEvictions int64 `json:"cache_evictions"`

	// L2 (disk cache) gauges and counters; all zero-valued when the tier is
	// disabled. L2PutErrorsTotal counts lost persistence, not lost
	// responses — a failed disk write never fails the request.
	L2Enabled          bool  `json:"l2_enabled"`
	L2Entries          int   `json:"l2_entries,omitempty"`
	L2Bytes            int64 `json:"l2_bytes,omitempty"`
	L2Hits             int64 `json:"l2_hits,omitempty"`
	L2Misses           int64 `json:"l2_misses,omitempty"`
	L2Puts             int64 `json:"l2_puts,omitempty"`
	L2PutErrorsTotal   int64 `json:"l2_put_errors_total,omitempty"`
	L2Evictions        int64 `json:"l2_evictions,omitempty"`
	L2QuarantinedTotal int64 `json:"l2_quarantined_total,omitempty"`

	// Cluster identity and proxy counters; zero-valued when single-node.
	// PeerProxiedTotal counts owner exchanges this node completed as a
	// proxy; PeerServedTotal counts forwarded requests served as owner;
	// PeerLocalFallbackTotal counts keys run here because their owner was
	// unavailable; PeerLoopGuardTotal counts forwarded keys this node does
	// not own (peer-list disagreement, served locally anyway).
	ClusterEnabled         bool   `json:"cluster_enabled"`
	ClusterNodeID          int    `json:"cluster_node_id,omitempty"`
	ClusterSelf            string `json:"cluster_self,omitempty"`
	ClusterPeers           int    `json:"cluster_peers,omitempty"`
	PeerProxiedTotal       int64  `json:"peer_proxied_total,omitempty"`
	PeerServedTotal        int64  `json:"peer_served_total,omitempty"`
	PeerProxyErrorsTotal   int64  `json:"peer_proxy_errors_total,omitempty"`
	PeerLocalFallbackTotal int64  `json:"peer_local_fallback_total,omitempty"`
	PeerLoopGuardTotal     int64  `json:"peer_loop_guard_total,omitempty"`

	RunsTotal       int64   `json:"runs_total"`
	RunEventsTotal  uint64  `json:"run_events_total"`
	RunWallSecTotal float64 `json:"run_wall_sec_total"`

	// Estimate-mode counters: analytic requests served without touching
	// the scheduler (RunsTotal is by construction unmoved by these).
	EstimatesTotal          int64   `json:"estimates_total"`
	EstimateCacheHits       int64   `json:"estimate_cache_hits"`
	EstimateErrorTotal      int64   `json:"estimate_error_total"`
	EstimateLatencySecTotal float64 `json:"estimate_latency_sec_total"`
	EstimateLatencyMeanSec  float64 `json:"estimate_latency_mean_sec"`

	// Trace-store gauges and counters: registered traces and their total
	// canonical-encoding bytes, uploads accepted (POST /trace plus inline
	// trace_data, re-uploads included), and replays refused because the
	// named hash is not registered here.
	TraceStoreEntries int   `json:"trace_store_entries"`
	TraceStoreBytes   int64 `json:"trace_store_bytes"`
	TraceUploadsTotal int64 `json:"trace_uploads_total"`
	TraceUnknownTotal int64 `json:"trace_unknown_total"`

	// RunMeanSec is the moving average of recent run durations (real time)
	// that sizes Retry-After on 429 responses; 0 until a run completes.
	RunMeanSec float64 `json:"run_mean_sec"`

	// ErrorClasses breaks ErrorTotal down by core.ErrorClass taxonomy
	// (disk_failed, ionode_crashed, io_timeout, deadlock, internal).
	ErrorClasses map[string]int64 `json:"error_classes,omitempty"`

	// Sim is the stats.Snapshot merged over every fresh run served.
	Sim *stats.Snapshot `json:"sim,omitempty"`
}

// MetricsSnapshot assembles the current metrics document.
func (s *Server) MetricsSnapshot() Metrics {
	_, _, evictions := s.cache.Counters()
	m := Metrics{
		UptimeSec: time.Since(s.started).Seconds(),
		Draining:  s.draining.Load(),
		Workers:   s.opts.Workers,

		QueueCapacity: s.opts.QueueDepth,
		QueueDepth:    s.sched.QueueDepth(LaneInteractive),
		InFlight:      s.sched.InFlight(LaneInteractive),
		DoneTotal:     s.sched.Done(LaneInteractive),

		BatchQueueCapacity: s.opts.BatchQueueDepth,
		BatchQueueDepth:    s.sched.QueueDepth(LaneBatch),
		BatchInFlight:      s.sched.InFlight(LaneBatch),
		BatchDoneTotal:     s.sched.Done(LaneBatch),

		RequestsTotal:   s.requests.Load(),
		CacheHits:       s.hit.Load(),
		CacheMisses:     s.miss.Load(),
		SharedTotal:     s.sharedOK.Load(),
		RejectedTotal:   s.rejected.Load(),
		BadRequestTotal: s.badReq.Load(),
		CanceledTotal:   s.canceled.Load(),
		ErrorTotal:      s.failed.Load(),

		SweepsTotal:             s.sweepsTotal.Load(),
		SweepsActive:            s.sweepsActive.Load(),
		SweepsRejectedTotal:     s.sweepsRejected.Load(),
		SweepPointsTotal:        s.sweepPointsTotal.Load(),
		SweepPointsDedupedTotal: s.sweepDedupedTotal.Load(),
		SweepPointsSkippedTotal: s.sweepSkippedTotal.Load(),
		SweepPointsCachedTotal:  s.sweepCachedTotal.Load(),
		SweepPointsFailedTotal:  s.sweepFailedTotal.Load(),
		SweepCanceledTotal:      s.sweepCanceledTotal.Load(),

		CacheEntries:    s.cache.Len(),
		CacheBytes:      s.cache.Bytes(),
		CacheEvictions:  evictions,
		RunsTotal:       s.runs.Load(),
		RunEventsTotal:  s.runEvents.Load(),
		RunWallSecTotal: time.Duration(s.runWallNs.Load()).Seconds(),
		RunMeanSec:      time.Duration(s.runDurEWMA.Load()).Seconds(),

		TraceStoreEntries: s.traces.Len(),
		TraceStoreBytes:   s.traces.Bytes(),
		TraceUploadsTotal: s.traceUploads.Load(),
		TraceUnknownTotal: s.traceUnknown.Load(),

		EstimatesTotal:          s.estimates.Load(),
		EstimateCacheHits:       s.estimateHits.Load(),
		EstimateErrorTotal:      s.estimateFailed.Load(),
		EstimateLatencySecTotal: time.Duration(s.estimateLatNs.Load()).Seconds(),
	}
	if m.EstimatesTotal > 0 {
		m.EstimateLatencyMeanSec = m.EstimateLatencySecTotal / float64(m.EstimatesTotal)
	}
	if s.l2 != nil {
		m.L2Enabled = true
		m.L2Entries = s.l2.Len()
		m.L2Bytes = s.l2.Bytes()
		m.L2Hits, m.L2Misses, m.L2Puts, m.L2Evictions, m.L2QuarantinedTotal = s.l2.Counters()
		m.L2PutErrorsTotal = s.l2PutErrs.Load()
	}
	if ring := s.ring.Load(); ring != nil {
		m.ClusterEnabled = true
		m.ClusterNodeID = ring.Self().ID
		m.ClusterSelf = ring.Self().URL
		m.ClusterPeers = ring.Len()
		m.PeerProxiedTotal = s.peerProxied.Load()
		m.PeerServedTotal = s.peerServed.Load()
		m.PeerProxyErrorsTotal = s.peerProxyErr.Load()
		m.PeerLocalFallbackTotal = s.peerLocalFallback.Load()
		m.PeerLoopGuardTotal = s.peerLoopGuard.Load()
	}
	s.errClasses.mu.Lock()
	if len(s.errClasses.m) > 0 {
		m.ErrorClasses = make(map[string]int64, len(s.errClasses.m))
		for k, v := range s.errClasses.m {
			m.ErrorClasses[k] = v
		}
	}
	s.errClasses.mu.Unlock()
	s.sim.mu.Lock()
	if s.sim.snap != nil {
		snap := *s.sim.snap
		m.Sim = &snap
	}
	s.sim.mu.Unlock()
	return m
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	b, err := json.MarshalIndent(s.MetricsSnapshot(), "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(b, '\n'))
}
