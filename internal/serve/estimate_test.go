package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pario/internal/request"
)

// postMode issues a POST /run with an explicit ?mode= selector.
func postMode(t *testing.T, ts *httptest.Server, mode, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/run?mode="+mode, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestEstimateModeNeverSimulates is the estimate path's core contract:
// /run?mode=estimate answers analytically — the run counter must not move,
// repeated estimates are byte-identical cache hits, and the estimate
// request/latency counters account for every call.
func TestEstimateModeNeverSimulates(t *testing.T) {
	s := New(Options{Workers: 2, QueueDepth: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.sched.Close()

	const reqBody = `{"app":"scf11","procs":4,"input":"SMALL"}`
	resp1, body1 := postMode(t, ts, "estimate", reqBody)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("estimate: status %d: %s", resp1.StatusCode, body1)
	}
	if got := resp1.Header.Get("X-Pario-Cache"); got != "miss" {
		t.Fatalf("cold estimate: X-Pario-Cache = %q, want miss", got)
	}
	resp2, body2 := postMode(t, ts, "estimate", reqBody)
	if got := resp2.Header.Get("X-Pario-Cache"); got != "hit" {
		t.Fatalf("repeat estimate: X-Pario-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("repeat estimate body differs from the first")
	}

	m := metricsOf(t, ts)
	if m.RunsTotal != 0 {
		t.Fatalf("runs_total = %d after estimates, want 0 (an estimate consumed a scheduler slot)", m.RunsTotal)
	}
	if m.EstimatesTotal != 2 || m.EstimateCacheHits != 1 {
		t.Fatalf("estimates_total/hits = %d/%d, want 2/1", m.EstimatesTotal, m.EstimateCacheHits)
	}
	if m.EstimateLatencySecTotal <= 0 || m.EstimateLatencyMeanSec <= 0 {
		t.Fatalf("estimate latency counters not moving: total %v mean %v",
			m.EstimateLatencySecTotal, m.EstimateLatencyMeanSec)
	}

	// The body decodes into the estimate codec with a plausible prediction.
	var res EstimateResult
	if err := json.Unmarshal(body1, &res); err != nil {
		t.Fatal(err)
	}
	if res.Estimate == nil || res.Estimate.ElapsedSec <= 0 || res.Estimate.Bottleneck == "" {
		t.Fatalf("implausible estimate body: %s", body1)
	}
}

// TestEstimateAndExactKeysDisjoint pins the mode-marked cache key: the same
// canonical request served in both modes yields two distinct cache entries
// and two distinct bodies, and an estimate never pre-seeds the exact cache.
func TestEstimateAndExactKeysDisjoint(t *testing.T) {
	s := New(Options{Workers: 2, QueueDepth: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.sched.Close()

	const reqBody = `{"app":"fft","procs":2}`
	respE, bodyE := postMode(t, ts, "estimate", reqBody)
	if respE.StatusCode != http.StatusOK {
		t.Fatalf("estimate: status %d: %s", respE.StatusCode, bodyE)
	}
	// The estimate must not have warmed the exact path: this is a miss that
	// actually simulates.
	respX, bodyX := postMode(t, ts, "exact", reqBody)
	if respX.StatusCode != http.StatusOK {
		t.Fatalf("exact: status %d: %s", respX.StatusCode, bodyX)
	}
	if got := respX.Header.Get("X-Pario-Cache"); got != "miss" {
		t.Fatalf("exact after estimate: X-Pario-Cache = %q, want miss (estimate polluted the exact cache)", got)
	}
	if respE.Header.Get("X-Pario-Key") == respX.Header.Get("X-Pario-Key") {
		t.Fatal("estimate and exact modes share a cache key")
	}
	if bytes.Equal(bodyE, bodyX) {
		t.Fatal("estimate and exact bodies are identical")
	}
	m := metricsOf(t, ts)
	if m.RunsTotal != 1 {
		t.Fatalf("runs_total = %d, want exactly the one exact run", m.RunsTotal)
	}
	if m.CacheEntries != 2 {
		t.Fatalf("cache_entries = %d, want 2 (one per mode)", m.CacheEntries)
	}
}

// TestEstimateRefusesFaultPlans pins the estimate/fault interaction: a
// fault-plan request in estimate mode answers a structured 422 with the
// estimate_unsupported class, nothing is cached, and the error is counted —
// while the same request in exact mode still runs.
func TestEstimateRefusesFaultPlans(t *testing.T) {
	s := New(Options{Workers: 2, QueueDepth: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.sched.Close()

	const reqBody = `{"app":"ast","procs":4,"faults":"disk:0:degrade=8@t=0.5s..2s;retry=4"}`
	for i := 0; i < 2; i++ { // twice: the refusal itself must not be cached
		resp, body := postMode(t, ts, "estimate", reqBody)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("faulted estimate: status %d, want 422: %s", resp.StatusCode, body)
		}
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil {
			t.Fatalf("422 body not structured JSON: %s", body)
		}
		if eb.Class != "estimate_unsupported" {
			t.Fatalf("422 class = %q, want estimate_unsupported", eb.Class)
		}
	}
	m := metricsOf(t, ts)
	if m.CacheEntries != 0 {
		t.Fatalf("cache_entries = %d after refused estimates, want 0", m.CacheEntries)
	}
	if m.EstimateErrorTotal != 2 {
		t.Fatalf("estimate_error_total = %d, want 2", m.EstimateErrorTotal)
	}
	if got := m.ErrorClasses["estimate_unsupported"]; got != 2 {
		t.Fatalf("error_classes[estimate_unsupported] = %d, want 2", got)
	}
	if m.RunsTotal != 0 {
		t.Fatalf("runs_total = %d, want 0", m.RunsTotal)
	}

	// The same plan in exact mode is inside the domain and simulates.
	resp, body := postMode(t, ts, "exact", reqBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("faulted exact run: status %d: %s", resp.StatusCode, body)
	}
}

// TestRunModeValidation pins the ?mode= vocabulary.
func TestRunModeValidation(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.sched.Close()

	resp, body := postMode(t, ts, "approximate", `{"app":"fft"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mode=approximate: status %d, want 400: %s", resp.StatusCode, body)
	}
	if m := metricsOf(t, ts); m.BadRequestTotal != 1 {
		t.Fatalf("bad_request_total = %d, want 1", m.BadRequestTotal)
	}
}

// TestSweepEstimateFastPath drives /sweep?mode=estimate: the whole grid is
// answered analytically — one line per point with the estimate-mode body,
// runs_total unmoved, sweep counters still accounting — and each streamed
// body is byte-identical to the same point via /run?mode=estimate.
func TestSweepEstimateFastPath(t *testing.T) {
	s := New(Options{Workers: 2, QueueDepth: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.sched.Close()

	resp, err := http.Get(ts.URL + "/sweep?app=fft&procs=1,2,4&opt=both&mode=estimate")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep estimate: status %d: %s", resp.StatusCode, raw)
	}
	rows := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	var sum SweepSummary
	if err := json.Unmarshal([]byte(rows[len(rows)-1]), &sum); err != nil || !sum.Done {
		t.Fatalf("no done summary: %q", rows[len(rows)-1])
	}
	if sum.Points != 6 || sum.OK != 6 || sum.Failed != 0 {
		t.Fatalf("summary %+v, want 6 points all OK", sum)
	}
	for _, row := range rows[:len(rows)-1] {
		var ln SweepLine
		if err := json.Unmarshal([]byte(row), &ln); err != nil {
			t.Fatalf("line %q: %v", row, err)
		}
		if ln.Error != "" {
			t.Fatalf("point %d failed: %s", ln.Point, ln.Error)
		}
		// Replay through /run?mode=estimate: byte-identical per mode.
		var res EstimateResult
		if err := json.Unmarshal([]byte(ln.Body), &res); err != nil {
			t.Fatalf("point %d body does not decode as an estimate: %v", ln.Point, err)
		}
		reqJSON, _ := json.Marshal(res.Request)
		rresp, rbody := postMode(t, ts, "estimate", string(reqJSON))
		if rresp.StatusCode != http.StatusOK {
			t.Fatalf("point %d replay: status %d", ln.Point, rresp.StatusCode)
		}
		if !bytes.Equal([]byte(ln.Body), rbody) {
			t.Fatalf("point %d: sweep body differs from /run?mode=estimate body", ln.Point)
		}
		if rresp.Header.Get("X-Pario-Key") != ln.Key {
			t.Fatalf("point %d: sweep line key differs from the estimate cache key", ln.Point)
		}
	}

	m := metricsOf(t, ts)
	if m.RunsTotal != 0 {
		t.Fatalf("runs_total = %d after an estimate sweep, want 0", m.RunsTotal)
	}
	if m.SweepsTotal != 1 || m.SweepPointsTotal != 6 {
		t.Fatalf("sweep counters %d/%d, want 1 sweep with 6 points", m.SweepsTotal, m.SweepPointsTotal)
	}
	if m.EstimatesTotal != 12 { // 6 sweep points + 6 replays
		t.Fatalf("estimates_total = %d, want 12", m.EstimatesTotal)
	}
}

// TestSweepEstimateFaultPointsStreamErrors pins the estimate sweep's
// behavior on fault plans: every point streams a per-point error line with
// the estimate_unsupported class instead of failing the whole sweep.
func TestSweepEstimateFaultPointsStreamErrors(t *testing.T) {
	s := New(Options{Workers: 2, QueueDepth: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.sched.Close()

	resp, err := http.Get(ts.URL + "/sweep?app=fft&procs=1,2&mode=estimate&faults=" +
		"disk%3A0%3Adegrade%3D8%40t%3D0.5s..2s%3Bretry%3D4")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	rows := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	var sum SweepSummary
	if err := json.Unmarshal([]byte(rows[len(rows)-1]), &sum); err != nil || !sum.Done {
		t.Fatalf("no done summary: %q", rows[len(rows)-1])
	}
	if sum.Points != 2 || sum.Failed != 2 || sum.OK != 0 {
		t.Fatalf("summary %+v, want both points failed", sum)
	}
	for _, row := range rows[:len(rows)-1] {
		var ln SweepLine
		if err := json.Unmarshal([]byte(row), &ln); err != nil {
			t.Fatal(err)
		}
		if ln.Class != "estimate_unsupported" || ln.Error == "" {
			t.Fatalf("point %d: class %q error %q, want estimate_unsupported", ln.Point, ln.Class, ln.Error)
		}
	}
	if m := metricsOf(t, ts); m.RunsTotal != 0 || m.SweepPointsFailedTotal != 2 {
		t.Fatalf("runs/failed = %d/%d, want 0/2", m.RunsTotal, m.SweepPointsFailedTotal)
	}
}

// TestEstimateKeyDisjointFromExact is the key-space unit check behind the
// handler test: for any canonical request the two addresses differ.
func TestEstimateKeyDisjointFromExact(t *testing.T) {
	reqs := []request.Request{
		{App: "scf11", Procs: 4, IONodes: 12, Input: "SMALL", Version: "original"},
		{App: "btio", Procs: 16, Class: "A", Opt: true},
	}
	for _, r := range reqs {
		canon, err := request.Canonicalize(r)
		if err != nil {
			t.Fatal(err)
		}
		if canon.Key() == estimateKey(canon) {
			t.Fatalf("exact and estimate keys collide for %+v", canon)
		}
	}
}

// TestRunTakesSizeFieldsByGetAndPost: the size fields reach /run by query
// parameter and by JSON body alike and key identically; a field the
// estimator does not price answers 422, and a btio process count near
// MaxInt is refused at once.
func TestRunTakesSizeFieldsByGetAndPost(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.sched.Close()
	get := func(query string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/run?" + query)
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, b
	}

	gresp, gbody := get("mode=estimate&app=ast&n=256&arrays=2&dumps=2")
	presp, pbody := postMode(t, ts, "estimate", `{"app":"ast","n":256,"arrays":2,"dumps":2}`)
	if gresp.StatusCode != http.StatusOK || presp.StatusCode != http.StatusOK {
		t.Fatalf("GET %d %s / POST %d %s", gresp.StatusCode, gbody, presp.StatusCode, pbody)
	}
	if gk, pk := gresp.Header.Get("X-Pario-Key"), presp.Header.Get("X-Pario-Key"); gk != pk || !bytes.Equal(gbody, pbody) {
		t.Fatalf("GET and POST disagree: keys %s / %s", gk, pk)
	}
	_, dbody := postMode(t, ts, "estimate", `{"app":"ast"}`)
	if bytes.Equal(dbody, pbody) {
		t.Fatal("a non-default ast size answered the default-size estimate")
	}

	if resp, b := get("mode=estimate&app=scf11&stripe_unit_kb=128"); resp.StatusCode != http.StatusUnprocessableEntity ||
		!strings.Contains(string(b), "estimate_unsupported") {
		t.Fatalf("unpriced stripe unit: %d %s, want 422 estimate_unsupported", resp.StatusCode, b)
	}
	if resp, b := get("app=btio&procs=9223372036854775807"); resp.StatusCode != http.StatusBadRequest ||
		!strings.Contains(string(b), "square process count") {
		t.Fatalf("btio at MaxInt procs: %d %s, want 400 naming the square process count", resp.StatusCode, b)
	}
	if resp, b := get("app=fft&buffer_kb=-1"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative buffer_kb: %d %s, want 400", resp.StatusCode, b)
	}
}
