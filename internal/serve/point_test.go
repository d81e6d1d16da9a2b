package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"pario/internal/cluster"
	"pario/internal/core"
	"pario/internal/request"
)

// pointEnv is one differential-test fixture: a two-node cluster where node
// 0 owns the row's key and node 1 is the proxy that does not.
type pointEnv struct {
	srvs  [2]*Server
	tss   [2]*httptest.Server
	procs int    // fft procs of the fft key node 0 owns
	key   string // that key
	body  string // its /run body under the fake seam
	trace string // a never-uploaded trace hash whose replay key node 0 owns
	tkey  string // that replay's key
}

// Run seams for the rows: an instant fake report, a run that blocks until
// its deadline, and a classified simulation failure.
var (
	seamOK    = fakeRun(nil, closedChan())
	seamBlock = fakeRun(nil, make(chan struct{}))
	seamFail  = func(context.Context, request.Request) (core.Report, error) {
		return core.Report{}, core.Classify("disk_failed", errors.New("disk 0 failed at t=1ms"))
	}
)

func closedChan() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}

func newPointEnv(t *testing.T, run func(context.Context, request.Request) (core.Report, error), opts ...Options) *pointEnv {
	t.Helper()
	e := &pointEnv{}
	var rings [2]*cluster.Ring
	e.srvs, e.tss, rings = clusterPair(t, opts...)
	for _, s := range e.srvs {
		if run != nil {
			s.run = run
		}
	}
	for p := 1; p <= 64 && e.key == ""; p++ {
		canon, err := request.Canonicalize(request.Request{App: "fft", Procs: p})
		if err != nil || rings[0].Owner(canon.Key()).URL != e.tss[0].URL {
			continue
		}
		body, err := Encode(canon, core.Report{Machine: "fake", Procs: canon.Procs, ExecSec: 1})
		if err != nil {
			t.Fatal(err)
		}
		e.procs, e.key, e.body = p, canon.Key(), string(body)
	}
	for i := 1; i <= 64 && e.tkey == ""; i++ {
		h := fmt.Sprintf("%064x", i)
		canon, err := request.Canonicalize(request.Request{App: "trace", Trace: h})
		if err == nil && rings[0].Owner(canon.Key()).URL == e.tss[0].URL {
			e.trace, e.tkey = h, canon.Key()
		}
	}
	if e.key == "" || e.tkey == "" {
		t.Fatal("no key owned by node 0 in 64 candidates")
	}
	return e
}

// post sends POST /run with the given JSON body to node n, with extra
// headers and query.
func (e *pointEnv) post(t *testing.T, n int, query, body string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, e.tss[n].URL+"/run"+query, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	return do(t, req)
}

func (e *pointEnv) sweep(t *testing.T, n int, query string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, e.tss[n].URL+"/sweep?"+query, nil)
	if err != nil {
		t.Fatal(err)
	}
	return do(t, req)
}

func do(t *testing.T, req *http.Request) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func (e *pointEnv) fftJSON() string { return fmt.Sprintf(`{"app":"fft","procs":%d}`, e.procs) }
func (e *pointEnv) fftQuery() string {
	return fmt.Sprintf("app=fft&procs=%d", e.procs)
}
func (e *pointEnv) traceJSON() string  { return fmt.Sprintf(`{"app":"trace","trace":%q}`, e.trace) }
func (e *pointEnv) traceQuery() string { return "app=trace&trace=" + e.trace }

// sweepStream renders the one-point sweep stream a client reads: the point
// line, then the closing summary.
func sweepStream(line SweepLine, sum SweepSummary) string {
	a, _ := json.Marshal(line)
	b, _ := json.Marshal(sum)
	return string(a) + "\n" + string(b) + "\n"
}

// counters flattens every /metrics counter (gauges, sizes and wall-clock
// fields excluded) into name → value; error classes appear as
// error_classes.<class>.
func counters(t *testing.T, s *Server) map[string]int64 {
	t.Helper()
	b, err := json.Marshal(s.MetricsSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	skip := map[string]bool{
		"uptime_sec": true, "workers": true, "queue_capacity": true, "queue_depth": true,
		"in_flight": true, "batch_queue_capacity": true, "batch_queue_depth": true,
		"batch_in_flight": true, "sweeps_active": true, "cache_bytes": true,
		"run_wall_sec_total": true, "run_mean_sec": true, "cluster_node_id": true,
		"cluster_peers": true, "estimate_latency_sec_total": true,
		"estimate_latency_mean_sec": true, "trace_store_bytes": true, "l2_bytes": true,
	}
	out := map[string]int64{}
	for k, v := range raw {
		switch v := v.(type) {
		case float64:
			if !skip[k] {
				out[k] = int64(v)
			}
		case map[string]any:
			if k == "error_classes" {
				for c, n := range v {
					out["error_classes."+c] = int64(n.(float64))
				}
			}
		}
	}
	return out
}

// delta is after − before, keeping only counters that moved.
func delta(before, after map[string]int64) map[string]int64 {
	d := map[string]int64{}
	for k, v := range after {
		if v != before[k] {
			d[k] = v - before[k]
		}
	}
	for k, v := range before {
		if _, ok := after[k]; !ok && v != 0 {
			d[k] = -v
		}
	}
	return d
}

func fmtDelta(d map[string]int64) string {
	keys := make([]string, 0, len(d))
	for k := range d {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s:%d ", k, d[k])
	}
	return strings.TrimSpace(b.String())
}

// moved is shorthand for a counter delta: alternating name, value pairs.
func moved(kv ...any) map[string]int64 {
	m := map[string]int64{}
	for i := 0; i < len(kv); i += 2 {
		m[kv[i].(string)] = int64(kv[i+1].(int))
	}
	return m
}

// TestPointPathsAgree is the differential test over every way a point is
// served: local /run, proxied /run, forwarded /run on both lanes, local and
// proxied sweep points, and the owner-down fallback, each on the success
// path and on every error path. A row pins the status, the body bytes, the
// contract headers and the delta of every /metrics counter on both nodes.
// In a row's expectations {owner} stands for node 0's URL, {key} for the
// row key and {trace} for the unknown trace's hash.
func TestPointPathsAgree(t *testing.T) {
	type want struct {
		status int
		body   string
		hdr    map[string]string // X-Pario-Cache, X-Pario-Key, X-Pario-Owner, Retry-After, Content-Type
		deltas [2]map[string]int64
	}
	const (
		jsonCT = "application/json"
		ndjson = "application/x-ndjson"
	)
	fwd := func(e *pointEnv, lane string) map[string]string {
		h := map[string]string{forwardedByHeader: e.tss[1].URL}
		if lane != "" {
			h[laneHeader] = lane
		}
		return h
	}
	runHdr := func(cache, key, ra, ct string) map[string]string {
		return map[string]string{"X-Pario-Cache": cache, "X-Pario-Key": key, "X-Pario-Owner": "{owner}", "Retry-After": ra, "Content-Type": ct}
	}
	sweepHdr := map[string]string{"X-Pario-Cache": "", "X-Pario-Key": "", "X-Pario-Owner": "", "Retry-After": "", "Content-Type": ndjson}
	okSum := SweepSummary{Done: true, Points: 1, OK: 1}
	failSum := SweepSummary{Done: true, Points: 1, Failed: 1}
	canceledSum := SweepSummary{Done: true, Points: 1, Canceled: 1}
	const (
		deadline   = "context deadline exceeded"
		jobExpired = deadline // the run's own error
		failMsg    = "disk 0 failed at t=1ms"
		unknownMsg = "serve: trace {trace} has not been uploaded to this node"
	)

	rows := []struct {
		name string
		seam func(context.Context, request.Request) (core.Report, error) // nil: production seam
		opts []Options
		// setup runs before the "before" counter snapshot.
		setup func(t *testing.T, e *pointEnv)
		// send sends the row's request and returns what the client saw.
		send func(t *testing.T, e *pointEnv) (*http.Response, []byte)
		want func(e *pointEnv) want
	}{
		{
			name: "run/local", seam: seamOK,
			send: func(t *testing.T, e *pointEnv) (*http.Response, []byte) { return e.post(t, 0, "", e.fftJSON(), nil) },
			want: func(e *pointEnv) want {
				return want{200, e.body, runHdr("miss", "{key}", "", jsonCT), [2]map[string]int64{
					moved("requests_total", 1, "cache_misses", 1, "runs_total", 1, "done_total", 1, "cache_entries", 1), {}}}
			},
		},
		{
			name: "run/proxied", seam: seamOK,
			send: func(t *testing.T, e *pointEnv) (*http.Response, []byte) { return e.post(t, 1, "", e.fftJSON(), nil) },
			want: func(e *pointEnv) want {
				return want{200, e.body, runHdr("miss", "{key}", "", jsonCT), [2]map[string]int64{
					moved("requests_total", 1, "cache_misses", 1, "peer_served_total", 1, "runs_total", 1, "done_total", 1, "cache_entries", 1),
					moved("requests_total", 1, "peer_proxied_total", 1, "cache_entries", 1)}}
			},
		},
		{
			name: "run/forwarded-interactive", seam: seamOK,
			send: func(t *testing.T, e *pointEnv) (*http.Response, []byte) {
				return e.post(t, 0, "", e.fftJSON(), fwd(e, ""))
			},
			want: func(e *pointEnv) want {
				return want{200, e.body, runHdr("miss", "{key}", "", jsonCT), [2]map[string]int64{
					moved("requests_total", 1, "cache_misses", 1, "peer_served_total", 1, "runs_total", 1, "done_total", 1, "cache_entries", 1), {}}}
			},
		},
		{
			name: "run/forwarded-batch", seam: seamOK,
			send: func(t *testing.T, e *pointEnv) (*http.Response, []byte) {
				return e.post(t, 0, "", e.fftJSON(), fwd(e, "batch"))
			},
			want: func(e *pointEnv) want {
				return want{200, e.body, runHdr("miss", "{key}", "", jsonCT), [2]map[string]int64{
					moved("requests_total", 1, "cache_misses", 1, "peer_served_total", 1, "runs_total", 1, "batch_done_total", 1, "cache_entries", 1), {}}}
			},
		},
		{
			name: "run/hit", seam: seamOK, setup: warmOwner,
			send: func(t *testing.T, e *pointEnv) (*http.Response, []byte) { return e.post(t, 0, "", e.fftJSON(), nil) },
			want: func(e *pointEnv) want {
				return want{200, e.body, runHdr("hit", "{key}", "", jsonCT), [2]map[string]int64{
					moved("requests_total", 1, "cache_hits", 1), {}}}
			},
		},
		{
			name: "sweep/local", seam: seamOK,
			send: func(t *testing.T, e *pointEnv) (*http.Response, []byte) { return e.sweep(t, 0, e.fftQuery()) },
			want: func(e *pointEnv) want {
				return want{200, sweepStream(SweepLine{Key: e.key, Cache: "miss", Body: e.body}, okSum), sweepHdr, [2]map[string]int64{
					moved("requests_total", 1, "sweeps_total", 1, "sweep_points_total", 1, "runs_total", 1, "batch_done_total", 1, "cache_entries", 1), {}}}
			},
		},
		{
			name: "sweep/proxied", seam: seamOK,
			send: func(t *testing.T, e *pointEnv) (*http.Response, []byte) { return e.sweep(t, 1, e.fftQuery()) },
			want: func(e *pointEnv) want {
				return want{200, sweepStream(SweepLine{Key: e.key, Cache: "miss", Body: e.body}, okSum), sweepHdr, [2]map[string]int64{
					moved("requests_total", 1, "cache_misses", 1, "peer_served_total", 1, "runs_total", 1, "batch_done_total", 1, "cache_entries", 1),
					moved("requests_total", 1, "sweeps_total", 1, "sweep_points_total", 1, "peer_proxied_total", 1, "cache_entries", 1)}}
			},
		},
		{
			// The owner answers from its cache: a hit there, not a served
			// forward; the proxy relays the owner's X-Pario-Cache.
			name: "run/proxied-owner-hit", seam: seamOK, setup: warmOwner,
			send: func(t *testing.T, e *pointEnv) (*http.Response, []byte) { return e.post(t, 1, "", e.fftJSON(), nil) },
			want: func(e *pointEnv) want {
				return want{200, e.body, runHdr("hit", "{key}", "", jsonCT), [2]map[string]int64{
					moved("requests_total", 1, "cache_hits", 1),
					moved("requests_total", 1, "peer_proxied_total", 1, "cache_entries", 1)}}
			},
		},
		{
			name: "sweep/proxied-owner-hit", seam: seamOK, setup: warmOwner,
			send: func(t *testing.T, e *pointEnv) (*http.Response, []byte) { return e.sweep(t, 1, e.fftQuery()) },
			want: func(e *pointEnv) want {
				return want{200, sweepStream(SweepLine{Key: e.key, Cache: "hit", Body: e.body}, SweepSummary{Done: true, Points: 1, OK: 1, CacheHits: 1}), sweepHdr, [2]map[string]int64{
					moved("requests_total", 1, "cache_hits", 1),
					moved("requests_total", 1, "sweeps_total", 1, "sweep_points_total", 1, "peer_proxied_total", 1,
						"sweep_points_cached_total", 1, "cache_entries", 1)}}
			},
		},
		{
			name: "run/owner-down-fallback", seam: seamOK,
			setup: func(t *testing.T, e *pointEnv) { e.tss[0].Close() },
			send:  func(t *testing.T, e *pointEnv) (*http.Response, []byte) { return e.post(t, 1, "", e.fftJSON(), nil) },
			want: func(e *pointEnv) want {
				return want{200, e.body, runHdr("miss", "{key}", "", jsonCT), [2]map[string]int64{{},
					moved("requests_total", 1, "cache_misses", 1, "peer_proxy_errors_total", 1, "peer_local_fallback_total", 1,
						"runs_total", 1, "done_total", 1, "cache_entries", 1)}}
			},
		},
		{
			name: "sweep/owner-down-fallback", seam: seamOK,
			setup: func(t *testing.T, e *pointEnv) { e.tss[0].Close() },
			send:  func(t *testing.T, e *pointEnv) (*http.Response, []byte) { return e.sweep(t, 1, e.fftQuery()) },
			want: func(e *pointEnv) want {
				return want{200, sweepStream(SweepLine{Key: e.key, Cache: "miss", Body: e.body}, okSum), sweepHdr, [2]map[string]int64{{},
					moved("requests_total", 1, "sweeps_total", 1, "sweep_points_total", 1, "peer_proxy_errors_total", 1,
						"peer_local_fallback_total", 1, "runs_total", 1, "batch_done_total", 1, "cache_entries", 1)}}
			},
		},

		// Run timeouts: 504 on /run, a canceled line on /sweep.
		{
			name: "run/local-timeout", seam: seamBlock,
			send: func(t *testing.T, e *pointEnv) (*http.Response, []byte) {
				return e.post(t, 0, "?timeout_sec=0.05", e.fftJSON(), nil)
			},
			want: func(e *pointEnv) want {
				return want{504, `{"error":"` + deadline + `","class":"canceled"}` + "\n", runHdr("", "", "", jsonCT), [2]map[string]int64{
					moved("requests_total", 1, "canceled_total", 1, "runs_total", 1, "done_total", 1), {}}}
			},
		},
		{
			name: "run/proxied-timeout", seam: seamBlock,
			send: func(t *testing.T, e *pointEnv) (*http.Response, []byte) {
				return e.post(t, 1, "?timeout_sec=0.05", e.fftJSON(), nil)
			},
			want: func(e *pointEnv) want {
				return want{504, `{"error":"` + deadline + `","class":"canceled"}` + "\n", runHdr("", "", "", jsonCT), [2]map[string]int64{
					moved("requests_total", 1, "peer_served_total", 1, "canceled_total", 1, "runs_total", 1, "done_total", 1),
					moved("requests_total", 1, "peer_proxied_total", 1)}}
			},
		},
		{
			name: "sweep/local-timeout", seam: seamBlock,
			send: func(t *testing.T, e *pointEnv) (*http.Response, []byte) {
				return e.sweep(t, 0, e.fftQuery()+"&timeout_sec=0.05")
			},
			want: func(e *pointEnv) want {
				return want{200, sweepStream(SweepLine{Key: e.key, Error: jobExpired, Class: "canceled"}, canceledSum), sweepHdr, [2]map[string]int64{
					moved("requests_total", 1, "sweeps_total", 1, "sweep_points_total", 1, "sweep_canceled_total", 1, "runs_total", 1, "batch_done_total", 1), {}}}
			},
		},
		{
			name: "sweep/proxied-timeout", seam: seamBlock,
			send: func(t *testing.T, e *pointEnv) (*http.Response, []byte) {
				return e.sweep(t, 1, e.fftQuery()+"&timeout_sec=0.05")
			},
			want: func(e *pointEnv) want {
				return want{200, sweepStream(SweepLine{Key: e.key, Error: "peer {owner}: " + jobExpired, Class: "canceled"}, canceledSum), sweepHdr, [2]map[string]int64{
					moved("requests_total", 1, "peer_served_total", 1, "canceled_total", 1, "runs_total", 1, "batch_done_total", 1),
					moved("requests_total", 1, "sweeps_total", 1, "sweep_points_total", 1, "peer_proxied_total", 1, "sweep_canceled_total", 1)}}
			},
		},

		// A classified simulation failure: a structured 500 carrying the class.
		{
			name: "run/local-failure", seam: seamFail,
			send: func(t *testing.T, e *pointEnv) (*http.Response, []byte) { return e.post(t, 0, "", e.fftJSON(), nil) },
			want: func(e *pointEnv) want {
				return want{500, `{"error":"` + failMsg + `","class":"disk_failed"}` + "\n", runHdr("", "", "", jsonCT), [2]map[string]int64{
					moved("requests_total", 1, "error_total", 1, "error_classes.disk_failed", 1, "runs_total", 1, "done_total", 1), {}}}
			},
		},
		{
			name: "run/proxied-failure", seam: seamFail,
			send: func(t *testing.T, e *pointEnv) (*http.Response, []byte) { return e.post(t, 1, "", e.fftJSON(), nil) },
			want: func(e *pointEnv) want {
				return want{500, `{"error":"` + failMsg + `","class":"disk_failed"}` + "\n", runHdr("", "", "", jsonCT), [2]map[string]int64{
					moved("requests_total", 1, "peer_served_total", 1, "error_total", 1, "error_classes.disk_failed", 1, "runs_total", 1, "done_total", 1),
					moved("requests_total", 1, "peer_proxied_total", 1)}}
			},
		},
		{
			name: "sweep/local-failure", seam: seamFail,
			send: func(t *testing.T, e *pointEnv) (*http.Response, []byte) { return e.sweep(t, 0, e.fftQuery()) },
			want: func(e *pointEnv) want {
				return want{200, sweepStream(SweepLine{Key: e.key, Error: failMsg, Class: "disk_failed"}, failSum), sweepHdr, [2]map[string]int64{
					moved("requests_total", 1, "sweeps_total", 1, "sweep_points_total", 1, "sweep_points_failed_total", 1,
						"error_classes.disk_failed", 1, "runs_total", 1, "batch_done_total", 1), {}}}
			},
		},
		{
			name: "sweep/proxied-failure", seam: seamFail,
			send: func(t *testing.T, e *pointEnv) (*http.Response, []byte) { return e.sweep(t, 1, e.fftQuery()) },
			want: func(e *pointEnv) want {
				return want{200, sweepStream(SweepLine{Key: e.key, Error: "peer {owner}: " + failMsg, Class: "disk_failed"}, failSum), sweepHdr, [2]map[string]int64{
					moved("requests_total", 1, "peer_served_total", 1, "error_total", 1, "error_classes.disk_failed", 1, "runs_total", 1, "batch_done_total", 1),
					moved("requests_total", 1, "sweeps_total", 1, "sweep_points_total", 1, "peer_proxied_total", 1,
						"sweep_points_failed_total", 1, "error_classes.disk_failed", 1)}}
			},
		},

		// A replay of a trace no node holds: 404 trace_unknown, answered
		// before admission.
		{
			name: "run/local-unknown-trace",
			send: func(t *testing.T, e *pointEnv) (*http.Response, []byte) { return e.post(t, 0, "", e.traceJSON(), nil) },
			want: func(e *pointEnv) want {
				return want{404, `{"error":"` + unknownMsg + `","class":"trace_unknown"}` + "\n", runHdr("", "", "", jsonCT), [2]map[string]int64{
					moved("requests_total", 1, "error_total", 1, "error_classes.trace_unknown", 1, "trace_unknown_total", 1), {}}}
			},
		},
		{
			name: "run/proxied-unknown-trace",
			send: func(t *testing.T, e *pointEnv) (*http.Response, []byte) { return e.post(t, 1, "", e.traceJSON(), nil) },
			want: func(e *pointEnv) want {
				return want{404, `{"error":"` + unknownMsg + `","class":"trace_unknown"}` + "\n", runHdr("", "", "", jsonCT), [2]map[string]int64{
					moved("requests_total", 1, "peer_served_total", 1, "error_total", 1, "error_classes.trace_unknown", 1, "trace_unknown_total", 1),
					moved("requests_total", 1, "peer_proxied_total", 1)}}
			},
		},
		{
			// Takes no batch slot and leaves runs_total unmoved, as on /run.
			name: "sweep/local-unknown-trace",
			send: func(t *testing.T, e *pointEnv) (*http.Response, []byte) { return e.sweep(t, 0, e.traceQuery()) },
			want: func(e *pointEnv) want {
				return want{200, sweepStream(SweepLine{Key: e.tkey, Error: unknownMsg, Class: "trace_unknown"}, failSum), sweepHdr, [2]map[string]int64{
					moved("requests_total", 1, "sweeps_total", 1, "sweep_points_total", 1, "sweep_points_failed_total", 1,
						"error_classes.trace_unknown", 1, "trace_unknown_total", 1), {}}}
			},
		},
		{
			name: "sweep/proxied-unknown-trace",
			send: func(t *testing.T, e *pointEnv) (*http.Response, []byte) { return e.sweep(t, 1, e.traceQuery()) },
			want: func(e *pointEnv) want {
				return want{200, sweepStream(SweepLine{Key: e.tkey, Error: "peer {owner}: " + unknownMsg, Class: "trace_unknown"}, failSum), sweepHdr, [2]map[string]int64{
					moved("requests_total", 1, "peer_served_total", 1, "error_total", 1, "error_classes.trace_unknown", 1, "trace_unknown_total", 1),
					moved("requests_total", 1, "sweeps_total", 1, "sweep_points_total", 1, "peer_proxied_total", 1,
						"sweep_points_failed_total", 1, "error_classes.trace_unknown", 1)}}
			},
		},

		// A busy owner: one worker running, its one queue slot taken.
		{
			name: "run/local-busy", seam: seamBlock, opts: []Options{{Workers: 1, QueueDepth: 1}},
			setup: fillOwner,
			send:  func(t *testing.T, e *pointEnv) (*http.Response, []byte) { return e.post(t, 0, "", e.fftJSON(), nil) },
			want: func(e *pointEnv) want {
				return want{429, `{"error":"queue full, retry later","class":"busy"}` + "\n", runHdr("", "", "1", jsonCT), [2]map[string]int64{
					moved("requests_total", 1, "rejected_total", 1), {}}}
			},
		},
		{
			name: "run/proxied-busy", seam: seamBlock, opts: []Options{{Workers: 1, QueueDepth: 1}},
			setup: fillOwner,
			send:  func(t *testing.T, e *pointEnv) (*http.Response, []byte) { return e.post(t, 1, "", e.fftJSON(), nil) },
			want: func(e *pointEnv) want {
				return want{429, `{"error":"queue full, retry later","class":"busy"}` + "\n", runHdr("", "", "1", jsonCT), [2]map[string]int64{
					moved("requests_total", 1, "peer_served_total", 1, "rejected_total", 1),
					moved("requests_total", 1, "peer_proxied_total", 1)}}
			},
		},
	}

	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			e := newPointEnv(t, row.seam, row.opts...)
			if row.setup != nil {
				row.setup(t, e)
			}
			before := [2]map[string]int64{counters(t, e.srvs[0]), counters(t, e.srvs[1])}
			resp, body := row.send(t, e)
			w := row.want(e)
			sub := strings.NewReplacer("{owner}", e.tss[0].URL, "{key}", e.key, "{trace}", e.trace)
			if resp.StatusCode != w.status {
				t.Errorf("status %d, want %d (body %q)", resp.StatusCode, w.status, body)
			}
			if wb := sub.Replace(w.body); string(body) != wb {
				t.Errorf("body\n got %q\nwant %q", body, wb)
			}
			for name, v := range w.hdr {
				if got, wv := resp.Header.Get(name), sub.Replace(v); got != wv {
					t.Errorf("%s = %q, want %q", name, got, wv)
				}
			}
			checkDeltas(t, e, before, w.deltas)
		})
	}
}

// TestPointClientGone: a sweep whose client disconnects while a proxied
// point is in flight does not fall back to running the point locally —
// nobody is left to receive it.
func TestPointClientGone(t *testing.T) {
	started := make(chan string, 1)
	e := newPointEnv(t, fakeRun(started, make(chan struct{})))
	before := [2]map[string]int64{counters(t, e.srvs[0]), counters(t, e.srvs[1])}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.tss[1].URL+"/sweep?"+e.fftQuery(), nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	<-started // the owner is running the proxied point
	cancel()
	<-done
	checkDeltas(t, e, before, [2]map[string]int64{
		moved("requests_total", 1, "peer_served_total", 1, "canceled_total", 1, "runs_total", 1, "batch_done_total", 1),
		moved("requests_total", 1, "sweeps_total", 1, "sweep_points_total", 1, "peer_proxy_errors_total", 1, "sweep_canceled_total", 1),
	})
}

// warmOwner caches the row key on node 0.
func warmOwner(t *testing.T, e *pointEnv) {
	if resp, b := e.post(t, 0, "", e.fftJSON(), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up: %d %s", resp.StatusCode, b)
	}
}

// fillOwner occupies node 0's one worker and its one interactive queue
// slot with forwarded requests (served locally whoever owns them).
func fillOwner(t *testing.T, e *pointEnv) {
	// A seeded run-duration average pins Retry-After at its 1 s floor.
	e.srvs[0].runDurEWMA.Store(int64(time.Millisecond))
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel) // runs before the servers close: the fillers end first
	for i, procs := range []int{4, 9} {
		go func(procs int) {
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.tss[0].URL+"/run", strings.NewReader(fmt.Sprintf(`{"app":"btio","procs":%d}`, procs)))
			if err != nil {
				return
			}
			req.Header.Set(forwardedByHeader, e.tss[1].URL)
			if resp, err := http.DefaultClient.Do(req); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(procs)
		waitFor(t, "the filler to be admitted", func() bool {
			if i == 0 {
				return e.srvs[0].sched.InFlight(LaneInteractive) == 1
			}
			return e.srvs[0].sched.QueueDepth(LaneInteractive) == 1
		})
	}
}

// checkDeltas polls both nodes' counters until they moved by exactly the
// wanted deltas, failing with the last observed deltas after a deadline:
// counters such as done_total settle just after the response is written.
func checkDeltas(t *testing.T, e *pointEnv, before, want [2]map[string]int64) {
	t.Helper()
	var got [2]map[string]int64
	deadline := time.Now().Add(3 * time.Second)
	for {
		match := true
		for n := range e.srvs {
			got[n] = delta(before[n], counters(t, e.srvs[n]))
			if fmtDelta(got[n]) != fmtDelta(want[n]) {
				match = false
			}
		}
		if match {
			return
		}
		if time.Now().After(deadline) {
			for n := range e.srvs {
				if g, w := fmtDelta(got[n]), fmtDelta(want[n]); g != w {
					t.Errorf("node %d counter deltas\n got %s\nwant %s", n, g, w)
				}
			}
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}
