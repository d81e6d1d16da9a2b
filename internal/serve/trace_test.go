package serve

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pario/internal/trace"
)

// testTrace returns a small deterministic trace that replays in
// microseconds of simulated work.
func testTrace() *trace.Trace {
	return trace.Generate("appendstorm", 2, 8, 1)
}

func TestTraceStoreIdempotentAndBounded(t *testing.T) {
	tr := testTrace()
	size := int64(len(tr.EncodeBinary()))
	ts := NewTraceStore(3 * size)
	h1, err := ts.Add(tr)
	if err != nil {
		t.Fatal(err)
	}
	h2, _, err := ts.AddData(tr.EncodeText())
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 || ts.Len() != 1 {
		t.Fatalf("re-upload not idempotent: %s/%s, %d entries", h1, h2, ts.Len())
	}
	if got, ok := ts.Get(h1); !ok || got.Hash() != h1 {
		t.Fatal("Get after Add failed")
	}
	// Distinct traces past the byte bound evict the least recently used.
	var hashes []string
	for i := 0; i < 4; i++ {
		v := trace.Generate("appendstorm", 2, 8+i, 1)
		h, err := ts.Add(v)
		if err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, h)
	}
	if ts.Len() > 3 || ts.Bytes() > 3*size+int64(ts.Len())*8 {
		t.Fatalf("store over bound: %d entries, %d bytes", ts.Len(), ts.Bytes())
	}
	if _, ok := ts.Get(hashes[len(hashes)-1]); !ok {
		t.Fatal("most recent trace evicted")
	}
	// An upload alone larger than the whole store is refused outright.
	small := NewTraceStore(8)
	if _, err := small.Add(tr); err == nil {
		t.Fatal("oversized trace accepted")
	}
}

// TestTraceUploadReplayRepeat is the tentpole's serving acceptance: upload
// a trace, replay it by hash like any other app, and prove the repeat is a
// cache hit that never re-simulates — pinned by runs_total.
func TestTraceUploadReplayRepeat(t *testing.T) {
	s := New(Options{Workers: 2, QueueDepth: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.sched.Close()

	tr := testTrace()
	resp, err := http.Post(ts.URL+"/trace", "text/plain", bytes.NewReader(tr.EncodeText()))
	if err != nil {
		t.Fatal(err)
	}
	var up struct {
		Trace  string `json:"trace"`
		Ranks  int    `json:"ranks"`
		Events int    `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&up); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || up.Trace != tr.Hash() || up.Ranks != 2 {
		t.Fatalf("upload: status %d, %+v (want hash %s)", resp.StatusCode, up, tr.Hash())
	}

	// The uploaded trace reads back as its canonical text encoding.
	resp, err = http.Get(ts.URL + "/trace?trace=" + up.Trace)
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(text, tr.EncodeText()) {
		t.Fatalf("download: status %d, %d bytes", resp.StatusCode, len(text))
	}

	runBody := fmt.Sprintf(`{"app":"trace","trace":%q,"version":"passion","opt":true}`, up.Trace)
	resp1, body1 := postRun(t, ts, runBody)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("cold replay: status %d: %s", resp1.StatusCode, body1)
	}
	if got := resp1.Header.Get("X-Pario-Cache"); got != "miss" {
		t.Fatalf("cold replay: X-Pario-Cache = %q, want miss", got)
	}
	if m := metricsOf(t, ts); m.RunsTotal != 1 || m.TraceUploadsTotal != 1 || m.TraceStoreEntries != 1 {
		t.Fatalf("after cold replay: runs=%d uploads=%d entries=%d",
			m.RunsTotal, m.TraceUploadsTotal, m.TraceStoreEntries)
	}

	resp2, body2 := postRun(t, ts, runBody)
	if resp2.StatusCode != http.StatusOK || resp2.Header.Get("X-Pario-Cache") != "hit" {
		t.Fatalf("warm replay: status %d, cache %q", resp2.StatusCode, resp2.Header.Get("X-Pario-Cache"))
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("replay bodies differ between cold and cached")
	}
	if m := metricsOf(t, ts); m.RunsTotal != 1 {
		t.Fatalf("warm replay re-simulated: runs_total = %d, want 1", m.RunsTotal)
	}
}

func TestTraceUnknownHashIs404(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.sched.Close()

	ghost := strings.Repeat("ab", 32)
	resp, body := postRun(t, ts, fmt.Sprintf(`{"app":"trace","trace":%q}`, ghost))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Class != "trace_unknown" {
		t.Fatalf("error body %s, want class trace_unknown", body)
	}
	if m := metricsOf(t, ts); m.TraceUnknownTotal != 1 || m.RunsTotal != 0 {
		t.Fatalf("unknown=%d runs=%d, want 1/0", m.TraceUnknownTotal, m.RunsTotal)
	}

	resp, err := http.Get(ts.URL + "/trace?trace=" + ghost)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /trace unknown: status %d, want 404", resp.StatusCode)
	}
}

// TestTraceBeyondMachineIs400 uploads a trace with one more rank than the
// replay machine has compute nodes: the upload is a valid trace, but its
// replay is a shape the client chose, so it answers 400 with a class, never
// a 500.
func TestTraceBeyondMachineIs400(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.sched.Close()

	tr := trace.AppendStorm(513, 1, 0)
	resp, err := http.Post(ts.URL+"/trace", "text/plain", bytes.NewReader(tr.EncodeText()))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: status %d", resp.StatusCode)
	}
	resp, body := postRun(t, ts, fmt.Sprintf(`{"app":"trace","trace":%q}`, tr.Hash()))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Class != "bad_request" ||
		!strings.Contains(eb.Error, "513 ranks") || !strings.Contains(eb.Error, "512 compute nodes") {
		t.Fatalf("error body %s, want class bad_request naming 513 ranks and 512 compute nodes", body)
	}
}

func TestTraceInlineDataRegistersAndRuns(t *testing.T) {
	s := New(Options{Workers: 2, QueueDepth: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.sched.Close()

	tr := testTrace()
	data := base64.StdEncoding.EncodeToString(tr.EncodeBinary())
	resp, body := postRun(t, ts, fmt.Sprintf(`{"app":"trace","trace_data":%q}`, data))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("inline run: status %d: %s", resp.StatusCode, body)
	}
	if m := metricsOf(t, ts); m.TraceStoreEntries != 1 || m.RunsTotal != 1 {
		t.Fatalf("entries=%d runs=%d, want 1/1", m.TraceStoreEntries, m.RunsTotal)
	}

	// A named hash contradicting the inline payload is refused.
	wrong := strings.Repeat("00", 32)
	resp, body = postRun(t, ts, fmt.Sprintf(`{"app":"trace","trace":%q,"trace_data":%q}`, wrong, data))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("hash-mismatch run: status %d: %s", resp.StatusCode, body)
	}

	// Matching hash + data is fine, and the canonical key ignores the
	// transport field: this is the same cached run as the first request.
	resp, _ = postRun(t, ts, fmt.Sprintf(`{"app":"trace","trace":%q,"trace_data":%q}`, tr.Hash(), data))
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Pario-Cache") != "hit" {
		t.Fatalf("matched inline rerun: status %d, cache %q", resp.StatusCode, resp.Header.Get("X-Pario-Cache"))
	}
	if m := metricsOf(t, ts); m.RunsTotal != 1 {
		t.Fatalf("inline rerun re-simulated: runs_total = %d", m.RunsTotal)
	}
}

func TestTraceEstimateUnsupported(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.sched.Close()

	hash, err := s.traces.Add(testTrace())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/run?mode=estimate", "application/json",
		strings.NewReader(fmt.Sprintf(`{"app":"trace","trace":%q}`, hash)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("estimate: status %d: %s", resp.StatusCode, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Class != "estimate_unsupported" {
		t.Fatalf("estimate error body %s", body)
	}
}

// TestTraceSweep sweeps the replay interface and opt dimensions over one
// uploaded trace and checks every point lands, with the cluster-free
// single-node invariant: unique keys == runs.
func TestTraceSweep(t *testing.T) {
	s := New(Options{Workers: 2, QueueDepth: 8, BatchQueueDepth: 32})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.sched.Close()

	hash, err := s.traces.Add(testTrace())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/sweep?app=trace&trace=" + hash + "&version=fortran,passion,native&opt=both")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("sweep: status %d: %s", resp.StatusCode, b)
	}
	var summary SweepSummary
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lines := 0
	for sc.Scan() {
		var line struct {
			Done  bool   `json:"done"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad stream line: %v", err)
		}
		if line.Done {
			if err := json.Unmarshal(sc.Bytes(), &summary); err != nil {
				t.Fatal(err)
			}
			break
		}
		if line.Error != "" {
			t.Fatalf("sweep point failed: %s", line.Error)
		}
		lines++
	}
	if summary.Points != 6 || summary.OK != 6 || lines != 6 {
		t.Fatalf("summary %+v, %d lines; want 6 clean points", summary, lines)
	}
	if m := metricsOf(t, ts); m.RunsTotal != 6 {
		t.Fatalf("runs_total = %d, want 6 (one per unique point)", m.RunsTotal)
	}
}
