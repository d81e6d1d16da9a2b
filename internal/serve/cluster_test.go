package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pario/internal/cluster"
	"pario/internal/diskcache"
)

// clusterPair boots two in-process servers wired into one two-node ring.
// httptest assigns the addresses, so the ring is installed after the fact
// via SetCluster — the same late-binding seam pariod uses. An optional
// Options replaces node 0's default ones.
func clusterPair(t *testing.T, node0 ...Options) (srvs [2]*Server, tss [2]*httptest.Server, rings [2]*cluster.Ring) {
	t.Helper()
	for i := range srvs {
		opts := Options{Workers: 2, QueueDepth: 8}
		if i == 0 && len(node0) > 0 {
			opts = node0[0]
		}
		srvs[i] = New(opts)
		tss[i] = httptest.NewServer(srvs[i].Handler())
		t.Cleanup(tss[i].Close)
		s := srvs[i]
		t.Cleanup(func() { s.sched.Close() })
	}
	peers := []string{tss[0].URL, tss[1].URL}
	for i := range srvs {
		r, err := cluster.New(peers, i)
		if err != nil {
			t.Fatal(err)
		}
		rings[i] = r
		srvs[i].SetCluster(r)
	}
	return srvs, tss, rings
}

// keyOwnedBy searches a small request family for a key the given node owns,
// returning the request JSON and its content address.
func keyOwnedBy(t *testing.T, ring *cluster.Ring, ownerURL string) (reqBody, key string) {
	t.Helper()
	for p := 1; p <= 64; p++ {
		req := Request{App: "fft", Procs: p}
		canon, err := Canonicalize(req)
		if err != nil {
			continue
		}
		k := canon.Key()
		if ring.Owner(k).URL == ownerURL {
			return fmt.Sprintf(`{"app":"fft","procs":%d}`, p), k
		}
	}
	t.Fatalf("no fft key owned by %s in 64 candidates", ownerURL)
	return "", ""
}

// TestClusterProxyToOwner is the tentpole contract: a /run for a key
// another node owns is proxied there, the owner simulates it exactly once,
// the proxy relays the body and contract headers verbatim and banks the
// body so its next request is a local hit.
func TestClusterProxyToOwner(t *testing.T) {
	_, tss, rings := clusterPair(t)
	// A key owned by node 0, requested at node 1 (the proxy).
	reqBody, key := keyOwnedBy(t, rings[0], tss[0].URL)

	resp, body := postRun(t, tss[1], reqBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proxied run: status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Pario-Cache"); got != "miss" {
		t.Fatalf("proxied run: X-Pario-Cache = %q, want miss (owner's outcome relayed)", got)
	}
	if got := resp.Header.Get("X-Pario-Key"); got != key {
		t.Fatalf("proxied run: X-Pario-Key = %q, want %q", got, key)
	}
	if got := resp.Header.Get("X-Pario-Owner"); got != tss[0].URL {
		t.Fatalf("proxied run: X-Pario-Owner = %q, want %q", got, tss[0].URL)
	}

	// Exactly one simulation, and it happened on the owner.
	m0, m1 := metricsOf(t, tss[0]), metricsOf(t, tss[1])
	if m0.RunsTotal != 1 || m1.RunsTotal != 0 {
		t.Fatalf("runs = owner %d / proxy %d, want 1 / 0", m0.RunsTotal, m1.RunsTotal)
	}
	if m1.PeerProxiedTotal != 1 || m0.PeerServedTotal != 1 {
		t.Fatalf("peer counters: proxied=%d served=%d, want 1 and 1", m1.PeerProxiedTotal, m0.PeerServedTotal)
	}
	if !m0.ClusterEnabled || !m1.ClusterEnabled || m0.ClusterPeers != 2 {
		t.Fatalf("cluster identity missing from metrics: %+v %+v", m0.ClusterEnabled, m1.ClusterEnabled)
	}

	// Same key from the owner directly: byte-identical body.
	respOwn, bodyOwn := postRun(t, tss[0], reqBody)
	if respOwn.StatusCode != http.StatusOK || !bytes.Equal(body, bodyOwn) {
		t.Fatal("owner's body differs from the proxied body")
	}
	if got := respOwn.Header.Get("X-Pario-Owner"); got != tss[0].URL {
		t.Fatalf("owner response X-Pario-Owner = %q, want %q", got, tss[0].URL)
	}

	// The proxy banked the body: its next request is a local hit, no new
	// proxy exchange, cluster-wide runs still 1.
	resp2, body2 := postRun(t, tss[1], reqBody)
	if got := resp2.Header.Get("X-Pario-Cache"); got != "hit" {
		t.Fatalf("re-request at proxy: X-Pario-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body, body2) {
		t.Fatal("proxy's cached body differs from the proxied body")
	}
	m0, m1 = metricsOf(t, tss[0]), metricsOf(t, tss[1])
	if m0.RunsTotal+m1.RunsTotal != 1 {
		t.Fatalf("cluster-wide runs = %d, want 1", m0.RunsTotal+m1.RunsTotal)
	}
	if m1.PeerProxiedTotal != 1 {
		t.Fatalf("proxy re-fetched a banked key: peer_proxied_total = %d", m1.PeerProxiedTotal)
	}
}

// TestClusterLoopGuard: a forwarded request is served locally even by a
// node that does not own the key — disagreeing peer lists must degrade to
// extra local work, never to a forwarding cycle.
func TestClusterLoopGuard(t *testing.T) {
	_, tss, rings := clusterPair(t)
	// A key node 1 does NOT own, presented to node 1 as already-forwarded.
	reqBody, _ := keyOwnedBy(t, rings[0], tss[0].URL)
	req, err := http.NewRequest(http.MethodPost, tss[1].URL+"/run", strings.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Pario-Forwarded-By", "http://confused-peer:7471")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("forwarded run: status %d: %s", resp.StatusCode, b)
	}
	if got := resp.Header.Get("X-Pario-Cache"); got != "miss" {
		t.Fatalf("forwarded run: X-Pario-Cache = %q, want miss (served locally)", got)
	}
	m1 := metricsOf(t, tss[1])
	if m1.RunsTotal != 1 {
		t.Fatalf("non-owner did not run the forwarded key locally: runs = %d", m1.RunsTotal)
	}
	if m1.PeerLoopGuardTotal != 1 || m1.PeerServedTotal != 1 {
		t.Fatalf("loop_guard=%d served=%d, want 1 and 1", m1.PeerLoopGuardTotal, m1.PeerServedTotal)
	}
	if m1.PeerProxiedTotal != 0 {
		t.Fatal("forwarded request was re-forwarded")
	}
}

// TestClusterProxiedTimeout504 is the bugfix regression: a per-request
// timeout must propagate through the proxy, and the proxied timeout must
// come back as the owner's 504 — not as a proxy-side transport error or a
// masked 502.
func TestClusterProxiedTimeout504(t *testing.T) {
	srvs, tss, rings := clusterPair(t)
	release := make(chan struct{})
	defer close(release)
	for _, s := range srvs {
		s.run = fakeRun(nil, release) // blocks until ctx expires
	}
	reqBody, _ := keyOwnedBy(t, rings[0], tss[0].URL)

	do := func(base string) (int, string) {
		t.Helper()
		resp, err := http.Post(base+"/run?timeout_sec=0.05", "application/json", strings.NewReader(reqBody))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	// Through the proxy (node 1 → owner node 0).
	code, body := do(tss[1].URL)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("proxied timeout: status %d (%s), want 504", code, body)
	}
	if !strings.Contains(body, "deadline") {
		t.Fatalf("proxied timeout body %q does not name the deadline", body)
	}
	// Locally at the owner: the same status and body shape.
	codeLocal, bodyLocal := do(tss[0].URL)
	if codeLocal != code || bodyLocal != body {
		t.Fatalf("proxied (%d %q) and local (%d %q) timeouts differ", code, body, codeLocal, bodyLocal)
	}
	m0, m1 := metricsOf(t, tss[0]), metricsOf(t, tss[1])
	if m0.CanceledTotal != 2 {
		t.Fatalf("owner canceled_total = %d, want 2 (proxied + local)", m0.CanceledTotal)
	}
	if m1.PeerLocalFallbackTotal != 0 {
		t.Fatal("a clean 504 must not trigger local fallback")
	}
}

// TestClusterOwnerDownFallback: an unreachable owner must not take its key
// range down with it — the proxy runs the key locally (determinism makes
// that sound) and counts the relaxation.
func TestClusterOwnerDownFallback(t *testing.T) {
	s := New(Options{Workers: 2, QueueDepth: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.sched.Close()
	// The peer is a listener that is already closed: connections refuse.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	ring, err := cluster.New([]string{ts.URL, deadURL}, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.SetCluster(ring)
	reqBody, _ := keyOwnedBy(t, ring, deadURL)

	resp, body := postRun(t, ts, reqBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fallback run: status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Pario-Cache"); got != "miss" {
		t.Fatalf("fallback run: X-Pario-Cache = %q, want miss", got)
	}
	m := metricsOf(t, ts)
	if m.RunsTotal != 1 || m.PeerLocalFallbackTotal != 1 || m.PeerProxyErrorsTotal != 1 {
		t.Fatalf("runs=%d fallback=%d proxy_errors=%d, want 1/1/1",
			m.RunsTotal, m.PeerLocalFallbackTotal, m.PeerProxyErrorsTotal)
	}
}

// TestClusterSweepFanout: a sweep submitted to one node fans its points to
// their owners — cluster-wide runs_total equals the unique point count,
// both nodes do some of the work, and a repeat sweep is all cache.
func TestClusterSweepFanout(t *testing.T) {
	_, tss, _ := clusterPair(t)

	sweep := func() SweepSummary {
		t.Helper()
		resp, err := http.Get(tss[0].URL + "/sweep?app=fft&procs=1..12")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sweep status %d", resp.StatusCode)
		}
		var sum SweepSummary
		dec := json.NewDecoder(resp.Body)
		for {
			var raw json.RawMessage
			if err := dec.Decode(&raw); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
			if bytes.Contains(raw, []byte(`"done"`)) {
				if err := json.Unmarshal(raw, &sum); err != nil {
					t.Fatal(err)
				}
			}
		}
		return sum
	}

	sum := sweep()
	if !sum.Done || sum.OK != sum.Points || sum.Failed != 0 {
		t.Fatalf("sweep summary: %+v", sum)
	}
	m0, m1 := metricsOf(t, tss[0]), metricsOf(t, tss[1])
	if got := m0.RunsTotal + m1.RunsTotal; got != int64(sum.Points) {
		t.Fatalf("cluster-wide runs = %d, want %d (one per unique point)", got, sum.Points)
	}
	if m0.RunsTotal == 0 || m1.RunsTotal == 0 {
		t.Fatalf("work not sharded: runs = %d / %d", m0.RunsTotal, m1.RunsTotal)
	}

	// Repeat: every point answers from node 0's cache (proxied bodies were
	// banked), so no node simulates anything new.
	sum2 := sweep()
	if sum2.CacheHits != sum2.Points {
		t.Fatalf("repeat sweep: %d/%d cached", sum2.CacheHits, sum2.Points)
	}
	n0, n1 := metricsOf(t, tss[0]), metricsOf(t, tss[1])
	if n0.RunsTotal != m0.RunsTotal || n1.RunsTotal != m1.RunsTotal {
		t.Fatal("repeat sweep re-simulated")
	}
}

// TestServeL2WarmRestart: a fresh process sharing the previous one's cache
// directory answers previously-simulated keys from disk — X-Pario-Cache
// says l2, runs_total stays 0. This is the restart invariant the cluster
// smoke proves end to end.
func TestServeL2WarmRestart(t *testing.T) {
	dir := t.TempDir()
	const reqBody = `{"app":"scf11","procs":8}`

	l2a, err := diskcache.Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Options{Workers: 1, QueueDepth: 2, L2: l2a})
	ts1 := httptest.NewServer(s1.Handler())
	resp, body1 := postRun(t, ts1, reqBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold run: status %d: %s", resp.StatusCode, body1)
	}
	m := metricsOf(t, ts1)
	if !m.L2Enabled || m.L2Entries != 1 || m.L2Puts != 1 || m.L2Bytes <= 0 {
		t.Fatalf("L2 metrics after cold run: %+v", m)
	}
	ts1.Close()
	s1.sched.Close()
	l2a.Close()

	// "Restart": new server, empty L1, same disk directory.
	l2b, err := diskcache.Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer l2b.Close()
	s2 := New(Options{Workers: 1, QueueDepth: 2, L2: l2b})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer s2.sched.Close()
	resp2, body2 := postRun(t, ts2, reqBody)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("warm run: status %d: %s", resp2.StatusCode, body2)
	}
	if got := resp2.Header.Get("X-Pario-Cache"); got != "l2" {
		t.Fatalf("warm run: X-Pario-Cache = %q, want l2", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("disk-served body differs from the original")
	}
	m2 := metricsOf(t, ts2)
	if m2.RunsTotal != 0 {
		t.Fatalf("restart re-simulated: runs = %d", m2.RunsTotal)
	}
	if m2.L2Hits != 1 || m2.CacheHits != 1 {
		t.Fatalf("l2_hits=%d cache_hits=%d, want 1/1", m2.L2Hits, m2.CacheHits)
	}
	// The disk hit was promoted: a third request answers from L1.
	resp3, _ := postRun(t, ts2, reqBody)
	if got := resp3.Header.Get("X-Pario-Cache"); got != "hit" {
		t.Fatalf("post-promotion request: X-Pario-Cache = %q, want hit", got)
	}
}

// TestClusterHeaderTimeoutPlumbing pins fetchFromOwner's request shape:
// the loop-guard header names the proxy and the effective timeout rides
// the query string, so the owner applies the client's deadline, not its
// own default.
func TestClusterHeaderTimeoutPlumbing(t *testing.T) {
	var gotFwd, gotTimeout, gotLane string
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotFwd = r.Header.Get("X-Pario-Forwarded-By")
		gotTimeout = r.URL.Query().Get("timeout_sec")
		gotLane = r.Header.Get("X-Pario-Lane")
		w.Header().Set("X-Pario-Cache", "miss")
		w.Header().Set("X-Pario-Key", "deadbeef")
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"ok":true}`)
	}))
	defer owner.Close()

	s := New(Options{Workers: 1, QueueDepth: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.sched.Close()
	ring, err := cluster.New([]string{ts.URL, owner.URL}, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.SetCluster(ring)

	canon, err := Canonicalize(Request{App: "fft"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.fetchFromOwner(context.Background(), cluster.Node{URL: owner.URL}, canon, 1500*time.Millisecond, LaneInteractive)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if gotFwd != ts.URL {
		t.Fatalf("X-Pario-Forwarded-By = %q, want %q", gotFwd, ts.URL)
	}
	if gotTimeout != "1.5" {
		t.Fatalf("timeout_sec = %q, want 1.5", gotTimeout)
	}
	if gotLane != "" {
		t.Fatalf("interactive fetch set X-Pario-Lane = %q", gotLane)
	}
	resp, err = s.fetchFromOwner(context.Background(), cluster.Node{URL: owner.URL}, canon, time.Second, LaneBatch)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if gotLane != "batch" {
		t.Fatalf("batch fetch X-Pario-Lane = %q, want batch", gotLane)
	}
}
