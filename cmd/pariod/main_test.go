package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestDaemonLifecycle drives the whole binary through its seam: start on
// an ephemeral port, health-check, serve one cold run and one cached
// rerun (asserting the run counter did not move), then drain gracefully.
func TestDaemonLifecycle(t *testing.T) {
	var stdout, stderr bytes.Buffer
	ready := make(chan string, 1)
	stop := make(chan struct{})
	exited := make(chan int, 1)
	go func() {
		exited <- run([]string{"-addr", "127.0.0.1:0", "-workers", "2", "-queue", "8",
			"-batch-queue", "8", "-max-sweep-points", "64", "-max-sweeps", "2"},
			&stdout, &stderr, ready, stop)
	}()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not come up")
	}
	base := "http://" + addr

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	const reqBody = `{"app":"scf11","procs":4,"input":"SMALL"}`
	post := func() (*http.Response, []byte) {
		resp, err := http.Post(base+"/run", "application/json", strings.NewReader(reqBody))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, b
	}
	cold, body1 := post()
	if cold.StatusCode != http.StatusOK || cold.Header.Get("X-Pario-Cache") != "miss" {
		t.Fatalf("cold: status %d cache %q", cold.StatusCode, cold.Header.Get("X-Pario-Cache"))
	}
	warm, body2 := post()
	if warm.StatusCode != http.StatusOK || warm.Header.Get("X-Pario-Cache") != "hit" {
		t.Fatalf("warm: status %d cache %q", warm.StatusCode, warm.Header.Get("X-Pario-Cache"))
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("cached body differs from fresh body")
	}

	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		RunsTotal int64 `json:"runs_total"`
		CacheHits int64 `json:"cache_hits"`
	}
	if err := json.NewDecoder(mresp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if m.RunsTotal != 1 || m.CacheHits != 1 {
		t.Fatalf("runs/hits = %d/%d, want 1/1", m.RunsTotal, m.CacheHits)
	}

	// A sweep over the already-cached point plus one cold neighbor streams
	// two NDJSON lines and a done summary through the batch lane.
	sresp, err := http.Get(base + "/sweep?app=scf11&procs=4,8&input=SMALL")
	if err != nil {
		t.Fatal(err)
	}
	sweepRaw, _ := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: status %d: %s", sresp.StatusCode, sweepRaw)
	}
	if got := sresp.Header.Get("X-Pario-Sweep-Points"); got != "2" {
		t.Fatalf("sweep points header = %q, want 2", got)
	}
	lines := strings.Split(strings.TrimRight(string(sweepRaw), "\n"), "\n")
	if len(lines) != 3 || !strings.Contains(lines[2], `"done":true`) {
		t.Fatalf("sweep stream = %d lines (%q), want 2 points + summary", len(lines), sweepRaw)
	}

	close(stop)
	select {
	case code := <-exited:
		if code != 0 {
			t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not drain")
	}
	if !strings.Contains(stdout.String(), "drained") {
		t.Fatalf("stdout missing drain confirmation: %s", stdout.String())
	}
}

// TestPprofHook smokes the -pprof-addr flag: the profiling mux comes up on
// its own listener, the index and a fast profile answer 200, and the
// service mux does NOT expose /debug/pprof/ — profiling stays an explicit,
// separately addressable opt-in.
func TestPprofHook(t *testing.T) {
	var stdout, stderr bytes.Buffer
	ready := make(chan string, 1)
	stop := make(chan struct{})
	exited := make(chan int, 1)
	go func() {
		exited <- run([]string{"-addr", "127.0.0.1:0", "-workers", "1",
			"-pprof-addr", "127.0.0.1:0"},
			&stdout, &stderr, ready, stop)
	}()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not come up")
	}

	// The startup log names the pprof address.
	var paddr string
	deadline := time.Now().Add(5 * time.Second)
	for paddr == "" && time.Now().Before(deadline) {
		for _, line := range strings.Split(stdout.String(), "\n") {
			if strings.HasPrefix(line, "pariod: pprof on http://") {
				paddr = strings.TrimSuffix(strings.TrimPrefix(line, "pariod: pprof on http://"), "/debug/pprof/")
			}
		}
		if paddr == "" {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if paddr == "" {
		t.Fatalf("no pprof address in startup log: %s", stdout.String())
	}

	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline"} {
		resp, err := http.Get("http://" + paddr + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("pprof %s: status %d", path, resp.StatusCode)
		}
	}

	// The service listener must not serve profiling handlers.
	resp, err := http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("service mux exposes /debug/pprof/")
	}

	close(stop)
	select {
	case code := <-exited:
		if code != 0 {
			t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not drain")
	}
}

// TestDaemonBadFlags pins the usage exit code, including malformed cluster
// flags — a node that cannot build its ring must refuse to start rather
// than silently serve single-node.
func TestDaemonBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	for _, args := range [][]string{
		{"-definitely-not-a-flag"},
		{"-peers", "ftp://bad:1,127.0.0.1:2"},
		{"-peers", "127.0.0.1:1,127.0.0.1:2", "-node-id", "5"},
		{"-peers", "127.0.0.1:1"},
	} {
		if code := run(args, &stdout, &stderr, nil, nil); code != 2 {
			t.Fatalf("run(%v) exit code %d, want 2", args, code)
		}
	}
}

// TestDaemonDiskCacheRestart drives the single-node persistence story
// through the binary seam: run once with -cache-dir, drain, start a fresh
// process on the same directory, and the same request answers from disk
// (X-Pario-Cache: l2) without a single new simulation.
func TestDaemonDiskCacheRestart(t *testing.T) {
	dir := t.TempDir()
	const reqBody = `{"app":"fft","procs":4,"input":"65536"}`

	boot := func() (addr string, stop chan struct{}, exited chan int, out *bytes.Buffer) {
		t.Helper()
		var stdout, stderr bytes.Buffer
		ready := make(chan string, 1)
		stop = make(chan struct{})
		exited = make(chan int, 1)
		go func() {
			exited <- run([]string{"-addr", "127.0.0.1:0", "-workers", "1",
				"-cache-dir", dir, "-cache-disk-bytes", "1048576"},
				&stdout, &stderr, ready, stop)
		}()
		select {
		case addr = <-ready:
		case <-time.After(10 * time.Second):
			t.Fatalf("daemon did not come up; stderr: %s", stderr.String())
		}
		return addr, stop, exited, &stdout
	}
	post := func(addr string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post("http://"+addr+"/run", "application/json", strings.NewReader(reqBody))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, b
	}
	drain := func(stop chan struct{}, exited chan int) {
		t.Helper()
		close(stop)
		select {
		case code := <-exited:
			if code != 0 {
				t.Fatalf("exit code %d", code)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("daemon did not drain")
		}
	}

	addr, stop, exited, _ := boot()
	cold, body1 := post(addr)
	if cold.StatusCode != http.StatusOK || cold.Header.Get("X-Pario-Cache") != "miss" {
		t.Fatalf("cold: status %d cache %q", cold.StatusCode, cold.Header.Get("X-Pario-Cache"))
	}
	drain(stop, exited)

	addr2, stop2, exited2, out2 := boot()
	warm, body2 := post(addr2)
	if warm.StatusCode != http.StatusOK || warm.Header.Get("X-Pario-Cache") != "l2" {
		t.Fatalf("after restart: status %d cache %q, want 200 l2", warm.StatusCode, warm.Header.Get("X-Pario-Cache"))
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("disk-served body differs from the original")
	}
	mresp, err := http.Get("http://" + addr2 + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		RunsTotal int64 `json:"runs_total"`
		L2Hits    int64 `json:"l2_hits"`
	}
	if err := json.NewDecoder(mresp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if m.RunsTotal != 0 || m.L2Hits != 1 {
		t.Fatalf("after restart: runs=%d l2_hits=%d, want 0/1", m.RunsTotal, m.L2Hits)
	}
	if !strings.Contains(out2.String(), "entries") {
		t.Fatalf("startup log missing disk-cache recovery line: %s", out2.String())
	}
	drain(stop2, exited2)
}

// TestDaemonRefusesNonFiniteFaults: a fault plan naming an infinite, NaN
// or overflowing value is a 400 bad_request, and the daemon keeps serving
// after it: the next health check and run still answer.
func TestDaemonRefusesNonFiniteFaults(t *testing.T) {
	var stdout, stderr bytes.Buffer
	ready := make(chan string, 1)
	stop := make(chan struct{})
	exited := make(chan int, 1)
	go func() {
		exited <- run([]string{"-addr", "127.0.0.1:0", "-workers", "1"}, &stdout, &stderr, ready, stop)
	}()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not come up")
	}
	base := "http://" + addr
	post := func(body string) (int, []byte) {
		resp, err := http.Post(base+"/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, b
	}
	for _, plan := range []string{
		"disk:degrade=inf@t=0", "link:slow=NaN@t=0", "disk:degrade=1e308@t=0",
		"disk:stall=inf@t=0.01", "retry=4;backoff=inf",
	} {
		status, body := post(`{"app":"fft","procs":4,"faults":"` + plan + `"}`)
		var e struct {
			Class string `json:"class"`
		}
		if err := json.Unmarshal(body, &e); err != nil || status != http.StatusBadRequest || e.Class != "bad_request" {
			t.Fatalf("faults %q: status %d body %s, want a 400 bad_request", plan, status, body)
		}
	}
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("daemon stopped answering: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after refusals: %d", resp.StatusCode)
	}
	if status, body := post(`{"app":"fft","procs":4,"faults":"disk:degrade=2@t=0"}`); status != http.StatusOK {
		t.Fatalf("run after refusals: status %d: %s", status, body)
	}

	close(stop)
	select {
	case code := <-exited:
		if code != 0 {
			t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not drain")
	}
}
