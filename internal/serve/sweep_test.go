package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pario/internal/core"
	"pario/internal/request"
)

func TestParseIntTerms(t *testing.T) {
	cases := []struct {
		in   string
		want []int
	}{
		{"", []int{0}},
		{"4", []int{4}},
		{"1,2,4,8", []int{1, 2, 4, 8}},
		{"1..5", []int{1, 2, 3, 4, 5}},
		{"2..8..2", []int{2, 4, 6, 8}},
		{"1..64..x2", []int{1, 2, 4, 8, 16, 32, 64}},
		{"3..80..x3", []int{3, 9, 27, 81}[:3]},
		{" 2 , 4 ", []int{2, 4}},
		{"2,8..12..2", []int{2, 8, 10, 12}},
	}
	for _, c := range cases {
		got, err := parseIntTerms("procs", c.in, 1000)
		if err != nil {
			t.Errorf("%q: %v", c.in, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%q = %v, want %v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{
		"x", "1..", "..4", "8..2", "1..4..0", "1..4..x1", "1..4..-1",
		"1..2..3..4", "0..8..x2", "1..4..q",
	} {
		if got, err := parseIntTerms("procs", bad, 1000); err == nil {
			t.Errorf("%q accepted as %v, want error", bad, got)
		}
	}
	// The per-field cap stops runaway ranges during parsing.
	if _, err := parseIntTerms("procs", "1..100", 10); err == nil {
		t.Error("range past the value cap accepted")
	}
}

func TestParseBoolAndStrTerms(t *testing.T) {
	for in, want := range map[string][]bool{
		"":           {false},
		"true":       {true},
		"false":      {false},
		"both":       {false, true},
		"false,true": {false, true},
	} {
		got, err := parseBoolTerms("opt", in)
		if err != nil {
			t.Errorf("%q: %v", in, err)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%q = %v, want %v", in, got, want)
		}
	}
	if _, err := parseBoolTerms("opt", "maybe"); err == nil {
		t.Error("bool term \"maybe\" accepted")
	}
	if got := parseStrTerms(" SMALL , LARGE "); !reflect.DeepEqual(got, []string{"SMALL", "LARGE"}) {
		t.Errorf("str terms = %v", got)
	}
	if got := parseStrTerms("  "); !reflect.DeepEqual(got, []string{""}) {
		t.Errorf("blank str terms = %v", got)
	}
}

// TestExpandSweepSkipsInvalidPartitions: sweeping ionodes over a range that
// includes partition sizes the machine does not offer keeps the valid points
// and counts the rest as skipped instead of failing the sweep.
func TestExpandSweepSkipsInvalidPartitions(t *testing.T) {
	// fft runs on the small Paragon: only 2- and 4-node I/O partitions.
	points, skipped, deduped, err := ExpandSweep(SweepSpec{App: "fft", IONodes: "1..4"}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 || skipped != 2 || deduped != 0 {
		t.Fatalf("points/skipped/deduped = %d/%d/%d, want 2/2/0", len(points), skipped, deduped)
	}
	got := []int{points[0].Req.IONodes, points[1].Req.IONodes}
	if !reflect.DeepEqual(got, []int{2, 4}) {
		t.Fatalf("surviving partitions = %v, want [2 4]", got)
	}
	// The paper's large-Paragon sweep shape: 1..16 hits exactly {12, 16}.
	points, skipped, _, err = ExpandSweep(SweepSpec{App: "scf11", IONodes: "1..16"}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 || skipped != 14 {
		t.Fatalf("scf11 1..16: points/skipped = %d/%d, want 2/14", len(points), skipped)
	}
}

// TestExpandSweepDedupesIgnoredAxes: btio ignores ionodes entirely, so
// sweeping that axis folds onto one content address per remaining point.
func TestExpandSweepDedupesIgnoredAxes(t *testing.T) {
	points, skipped, deduped, err := ExpandSweep(SweepSpec{App: "btio", Procs: "4", IONodes: "2,4,12"}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 || deduped != 2 || skipped != 0 {
		t.Fatalf("points/deduped/skipped = %d/%d/%d, want 1/2/0", len(points), deduped, skipped)
	}
	if points[0].Req.IONodes != 0 {
		t.Fatalf("btio canonical ionodes = %d, want 0", points[0].Req.IONodes)
	}
	// Indexes are dense expansion order, and keys are the canonical
	// content addresses.
	points, _, _, err = ExpandSweep(SweepSpec{App: "fft", Procs: "1,2,4", Opt: "both"}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("fft 3x2 grid = %d points, want 6", len(points))
	}
	for i, p := range points {
		if p.Index != i {
			t.Fatalf("point %d has index %d", i, p.Index)
		}
		if p.Key != p.Req.Key() {
			t.Fatalf("point %d key mismatch", i)
		}
	}
}

func TestExpandSweepErrors(t *testing.T) {
	for name, spec := range map[string]SweepSpec{
		"no app":        {Procs: "4"},
		"unknown app":   {App: "ftf"},
		"all invalid":   {App: "fft", IONodes: "3,5,7"},
		"bad term":      {App: "fft", Procs: "fast"},
		"bad input":     {App: "scf11", Input: "HUGE"},
		"neg procs":     {App: "fft", Procs: "-2"},
		"btio nonsq":    {App: "btio", Procs: "3,5"},
		"point cap":     {App: "fft", Procs: "1..50"},
		"raw grid cap":  {App: "fft", Procs: "1..1000", CachedPct: "1..100"},
		"bad bool":      {App: "fft", Opt: "maybe"},
		"bad fault dsl": {App: "fft", Faults: "disk:warp"},
	} {
		if pts, _, _, err := ExpandSweep(spec, 10); err == nil {
			t.Errorf("%s: accepted with %d points, want error", name, len(pts))
		}
	}
	// An all-invalid sweep surfaces the first point's canonicalization
	// error — a misspelled sweep reads as its own diagnosis.
	_, _, _, err := ExpandSweep(SweepSpec{App: "ftf"}, 10)
	if err == nil || !strings.Contains(err.Error(), "no valid sweep point") ||
		!strings.Contains(err.Error(), "ftf") {
		t.Fatalf("all-invalid error = %v", err)
	}
}

// getSweep issues a GET /sweep and decodes the NDJSON stream into per-point
// lines plus the trailing summary.
func getSweep(t *testing.T, ts *httptest.Server, query string) (*http.Response, []SweepLine, SweepSummary) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/sweep?" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep %q: status %d: %s", query, resp.StatusCode, raw)
	}
	var lines []SweepLine
	var sum SweepSummary
	for _, ln := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		if strings.Contains(ln, `"done"`) {
			if err := json.Unmarshal([]byte(ln), &sum); err != nil {
				t.Fatalf("summary line %q: %v", ln, err)
			}
			continue
		}
		var l SweepLine
		if err := json.Unmarshal([]byte(ln), &l); err != nil {
			t.Fatalf("stream line %q: %v", ln, err)
		}
		lines = append(lines, l)
	}
	if !sum.Done {
		t.Fatalf("stream %q ended without a done summary", query)
	}
	return resp, lines, sum
}

// TestSweepStreamsRunIdenticalBodies is the tentpole's acceptance loop over
// a real grid: one NDJSON line per expanded point, each embedded body
// byte-identical to the /run response for the request it carries; repeating
// the sweep re-simulates nothing.
func TestSweepStreamsRunIdenticalBodies(t *testing.T) {
	s := New(Options{Workers: 2, QueueDepth: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.sched.Close()

	const query = "app=fft&procs=1,2,4&opt=both"
	resp, lines, sum := getSweep(t, ts, query)
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	hdrPoints, _ := strconv.Atoi(resp.Header.Get("X-Pario-Sweep-Points"))
	if hdrPoints != 6 || len(lines) != 6 || sum.Points != 6 || sum.OK != 6 {
		t.Fatalf("points: header %d, lines %d, summary %+v, want 6 everywhere", hdrPoints, len(lines), sum)
	}
	m := metricsOf(t, ts)
	if m.SweepPointsTotal != 6 || m.SweepsTotal != 1 {
		t.Fatalf("sweep_points_total/sweeps_total = %d/%d, want 6/1", m.SweepPointsTotal, m.SweepsTotal)
	}
	if m.RunsTotal != 6 {
		t.Fatalf("runs_total = %d, want 6 (one per unique cold point)", m.RunsTotal)
	}

	// Byte identity: each line's body decodes to a Result carrying its
	// canonical request; /run on that request must return those exact bytes.
	seen := map[string]bool{}
	for _, ln := range lines {
		if ln.Error != "" || ln.Body == "" {
			t.Fatalf("point %d: %+v", ln.Point, ln)
		}
		if seen[ln.Key] {
			t.Fatalf("key %s streamed twice", ln.Key)
		}
		seen[ln.Key] = true
		var res Result
		if err := json.Unmarshal([]byte(ln.Body), &res); err != nil {
			t.Fatalf("point %d body: %v", ln.Point, err)
		}
		reqJSON, err := json.Marshal(res.Request)
		if err != nil {
			t.Fatal(err)
		}
		runResp, runBody := postRun(t, ts, string(reqJSON))
		if runResp.StatusCode != http.StatusOK {
			t.Fatalf("point %d via /run: status %d: %s", ln.Point, runResp.StatusCode, runBody)
		}
		if !bytes.Equal([]byte(ln.Body), runBody) {
			t.Fatalf("point %d: sweep body differs from /run body", ln.Point)
		}
		if runResp.Header.Get("X-Pario-Key") != ln.Key {
			t.Fatalf("point %d: /run key differs from sweep key", ln.Point)
		}
		if got := runResp.Header.Get("X-Pario-Cache"); got != "hit" {
			t.Fatalf("point %d via /run: X-Pario-Cache = %q, want hit (the sweep seeds the cache)", ln.Point, got)
		}
	}

	// Second pass: every point is a cache hit, and nothing re-simulates.
	_, lines2, sum2 := getSweep(t, ts, query)
	if sum2.CacheHits != 6 || sum2.OK != 6 {
		t.Fatalf("repeat summary = %+v, want 6 hits", sum2)
	}
	for _, ln := range lines2 {
		if ln.Cache != "hit" {
			t.Fatalf("repeat point %d cache = %q, want hit", ln.Point, ln.Cache)
		}
	}
	m2 := metricsOf(t, ts)
	if m2.RunsTotal != m.RunsTotal {
		t.Fatalf("repeat sweep re-simulated: runs_total %d -> %d", m.RunsTotal, m2.RunsTotal)
	}
	if m2.SweepPointsCachedTotal != 6 {
		t.Fatalf("sweep_points_cached_total = %d, want 6", m2.SweepPointsCachedTotal)
	}
}

// TestSweepSkipDedupeCountersAndSSE: the invalid-partition and dedupe
// tallies reach the stream headers, summary, and /metrics; the same stream
// is available as server-sent events.
func TestSweepSkipDedupeCountersAndSSE(t *testing.T) {
	s := New(Options{Workers: 2, QueueDepth: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.sched.Close()

	resp, lines, sum := getSweep(t, ts, "app=fft&ionodes=1..4")
	if len(lines) != 2 || sum.Skipped != 2 {
		t.Fatalf("lines/skipped = %d/%d, want 2/2", len(lines), sum.Skipped)
	}
	if got := resp.Header.Get("X-Pario-Sweep-Skipped"); got != "2" {
		t.Fatalf("skip header = %q, want 2", got)
	}

	sseResp, err := http.Get(ts.URL + "/sweep?app=btio&procs=4&ionodes=2,4&format=sse")
	if err != nil {
		t.Fatal(err)
	}
	defer sseResp.Body.Close()
	raw, _ := io.ReadAll(sseResp.Body)
	if ct := sseResp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE Content-Type = %q", ct)
	}
	if !strings.HasPrefix(string(raw), "data: ") || !strings.Contains(string(raw), `"done":true`) {
		t.Fatalf("SSE stream shape: %q", raw)
	}
	if got := sseResp.Header.Get("X-Pario-Sweep-Deduped"); got != "1" {
		t.Fatalf("dedupe header = %q, want 1 (btio ignores ionodes)", got)
	}
	m := metricsOf(t, ts)
	if m.SweepPointsSkippedTotal != 2 || m.SweepPointsDedupedTotal != 1 {
		t.Fatalf("skipped/deduped totals = %d/%d, want 2/1", m.SweepPointsSkippedTotal, m.SweepPointsDedupedTotal)
	}
}

// TestSweepBadRequests pins the sweep 400/405 surface.
func TestSweepBadRequests(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 1, MaxSweepPoints: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.sched.Close()

	for name, query := range map[string]string{
		"no app":         "procs=4",
		"unknown app":    "app=warp",
		"bad range":      "app=fft&procs=8..2",
		"all invalid":    "app=fft&ionodes=7",
		"bad format":     "app=fft&format=xml",
		"bad timeout":    "app=fft&timeout_sec=forever",
		"overflow":       "app=fft&timeout_sec=1e308",
		"past point cap": "app=fft&procs=1..12",
	} {
		resp, err := http.Get(ts.URL + "/sweep?" + query)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	resp, err := http.Post(ts.URL+"/sweep", "application/json",
		strings.NewReader(`{"app":"fft","warp":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown JSON field: status %d, want 400", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sweep", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("DELETE: status %d, want 405", resp.StatusCode)
	}
}

// TestSweepPostBodySpec: the JSON POST form expands the same grid as the
// query form.
func TestSweepPostBodySpec(t *testing.T) {
	s := New(Options{Workers: 2, QueueDepth: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.sched.Close()

	resp, err := http.Post(ts.URL+"/sweep", "application/json",
		strings.NewReader(`{"app":"fft","procs":"2,4","opt":"both"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if got := resp.Header.Get("X-Pario-Sweep-Points"); got != "4" {
		t.Fatalf("points header = %q, want 4", got)
	}
}

// TestSweepConcurrencyShed: sweeps beyond MaxSweeps are shed with 429 and a
// batch-lane Retry-After while the running sweep is unaffected.
func TestSweepConcurrencyShed(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 2, MaxSweeps: 1})
	started := make(chan string, 8)
	release := make(chan struct{})
	rel := releaser(release)
	s.run = fakeRun(started, release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.sched.Close()
	defer rel()

	sweepDone := make(chan struct{})
	go func() {
		defer close(sweepDone)
		resp, err := http.Get(ts.URL + "/sweep?app=fft&procs=1,2")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	<-started // first sweep holds its admission slot

	resp, err := http.Get(ts.URL + "/sweep?app=fft&procs=4,8")
	if err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	err = json.NewDecoder(resp.Body).Decode(&eb)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second sweep: status %d, want 429", resp.StatusCode)
	}
	if err != nil || eb.Class != "busy" {
		t.Fatalf("second sweep: body %+v (%v), want class busy", eb, err)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("sweep 429 without Retry-After")
	}
	rel()
	<-sweepDone
	m := metricsOf(t, ts)
	if m.SweepsRejectedTotal != 1 {
		t.Fatalf("sweeps_rejected_total = %d, want 1", m.SweepsRejectedTotal)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSweepClientDisconnectCancelsQueued is the streaming-cancellation
// satellite: a client that walks away mid-sweep cancels every point still
// queued — the scheduler skips them without simulating, the batch lane
// drains to zero, and the freed capacity serves the next request.
func TestSweepClientDisconnectCancelsQueued(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 2, BatchQueueDepth: 2})
	started := make(chan string, 16)
	release := make(chan struct{})
	rel := releaser(release)
	s.run = fakeRun(started, release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.sched.Close()
	defer rel()

	// Six distinct points on one wedged worker: one running, two in the
	// batch queue, three feeders blocked waiting for a slot.
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/sweep?app=fft&procs=1..6", nil)
	if err != nil {
		t.Fatal(err)
	}
	reqDone := make(chan struct{})
	go func() {
		defer close(reqDone)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-started // first point occupies the worker
	waitFor(t, "batch backlog", func() bool { return s.sched.QueueDepth(LaneBatch) == 5 })

	cancel() // client disconnects mid-sweep
	<-reqDone

	// Every remaining point unwinds without running: queued jobs are
	// skipped, waiting feeders bail, and the lane drains completely.
	waitFor(t, "batch lane drain", func() bool {
		return s.sched.QueueDepth(LaneBatch) == 0 && s.sched.InFlight(LaneBatch) == 0
	})
	waitFor(t, "canceled accounting", func() bool {
		return metricsOf(t, ts).SweepCanceledTotal == 6
	})
	if n := len(started); n != 0 {
		t.Fatalf("%d queued points simulated after disconnect, want 0", n)
	}

	// The freed slots serve the next request.
	rel()
	resp, body := postRun(t, ts, `{"app":"btio","procs":4}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-disconnect run: status %d: %s", resp.StatusCode, body)
	}
}

// TestSweepAllCacheHitsNoRuns is the cached-sweep satellite in isolation:
// a sweep whose every point is already cached completes without submitting
// anything to the scheduler, leaving runs_total untouched.
func TestSweepAllCacheHitsNoRuns(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 2})
	var calls atomic.Int64
	s.run = func(ctx context.Context, req request.Request) (core.Report, error) {
		calls.Add(1)
		return core.Report{Machine: "fake", Procs: req.Procs, ExecSec: 1}, nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.sched.Close()

	// Warm every grid point through /run.
	for _, procs := range []int{1, 2, 4} {
		resp, body := postRun(t, ts, fmt.Sprintf(`{"app":"fft","procs":%d}`, procs))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warm procs=%d: status %d: %s", procs, resp.StatusCode, body)
		}
	}
	runsBefore := metricsOf(t, ts).RunsTotal

	_, lines, sum := getSweep(t, ts, "app=fft&procs=1,2,4")
	if sum.CacheHits != 3 || sum.OK != 3 || len(lines) != 3 {
		t.Fatalf("summary = %+v with %d lines, want 3 hits", sum, len(lines))
	}
	m := metricsOf(t, ts)
	if m.RunsTotal != runsBefore {
		t.Fatalf("all-hit sweep moved runs_total %d -> %d", runsBefore, m.RunsTotal)
	}
	if m.BatchDoneTotal != 0 {
		t.Fatalf("all-hit sweep touched the batch lane: done=%d", m.BatchDoneTotal)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("simulations = %d, want the 3 warming runs only", n)
	}
}

// TestInteractiveAdmittedDuringSweep is the acceptance criterion for lane
// isolation: with a large sweep saturating the batch lane, an interactive
// /run is still admitted (no 429), the per-lane gauges show both backlogs
// at once, the freed worker takes the interactive point before the
// remaining batch points, and every gauge is back at zero afterwards.
func TestInteractiveAdmittedDuringSweep(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 4, BatchQueueDepth: 2})
	started := make(chan string, 16)
	release := make(chan struct{})
	rel := releaser(release)
	s.run = fakeRun(started, release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.sched.Close()
	defer rel()

	// The goroutine must not t.Fatal (that hangs the sweepDone receive);
	// it reports through the channel and the main goroutine judges.
	type sweepRes struct {
		sum SweepSummary
		err error
	}
	sweepDone := make(chan sweepRes, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/sweep?app=fft&procs=1..6")
		if err != nil {
			sweepDone <- sweepRes{err: err}
			return
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			sweepDone <- sweepRes{err: err}
			return
		}
		rows := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
		var res sweepRes
		res.err = json.Unmarshal([]byte(rows[len(rows)-1]), &res.sum)
		sweepDone <- res
	}()
	if app := <-started; app != "fft" {
		t.Fatalf("first running point is %q", app)
	}
	waitFor(t, "batch backlog", func() bool { return s.sched.QueueDepth(LaneBatch) == 5 })

	// Interactive request lands while the batch lane is saturated.
	runDone := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/run", "application/json",
			strings.NewReader(`{"app":"btio","procs":4}`))
		if err != nil {
			runDone <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		runDone <- resp.StatusCode
	}()
	waitFor(t, "interactive admission", func() bool {
		return s.sched.QueueDepth(LaneInteractive) == 1
	})
	m := metricsOf(t, ts)
	if m.QueueDepth != 1 || m.BatchQueueDepth != 5 || m.BatchInFlight != 1 {
		t.Fatalf("lane gauges inter=%d batch=%d/%d, want 1 and 5/1",
			m.QueueDepth, m.BatchQueueDepth, m.BatchInFlight)
	}

	// On release, the freed worker must take the interactive point ahead
	// of the five batch points queued earlier.
	rel()
	if app := <-started; app != "btio" {
		t.Fatalf("first point after release is %q, want the interactive btio run", app)
	}
	if status := <-runDone; status != http.StatusOK {
		t.Fatalf("interactive run during sweep: status %d, want 200", status)
	}
	res := <-sweepDone
	if res.err != nil {
		t.Fatalf("sweep stream: %v", res.err)
	}
	if !res.sum.Done || res.sum.OK != 6 {
		t.Fatalf("sweep summary = %+v, want 6 ok", res.sum)
	}
	// Both lanes go back to idle once the sweep and the run are answered.
	// A job is counted done just before it leaves in-flight, so poll.
	waitFor(t, "idle lane gauges", func() bool {
		m := metricsOf(t, ts)
		return m.QueueDepth == 0 && m.InFlight == 0 && m.BatchQueueDepth == 0 && m.BatchInFlight == 0
	})
}
