// Command pariobench is the load driver for pariod: it fires a mixed
// stream of hot (repeated) and cold (distinct) run requests at a daemon,
// prints throughput and cache hit-rate, and verifies from the daemon's
// run-counter metric — not timing — that the cached path never
// re-simulates: the number of simulations executed must equal exactly the
// number of cache misses observed on the wire.
//
// With -sweep it instead drives the /sweep batch endpoint and verifies the
// sweep contract: one streamed NDJSON line per expanded point, runs_total
// moving by exactly the cold (miss) points, every embedded body
// byte-identical to the same point served via /run, and a repeat sweep that
// is all cache hits and re-simulates nothing.
//
// With -estimate it drives /run?mode=estimate and verifies the estimate
// contract: N analytic answers, runs_total unmoved (an estimate never
// consumes a scheduler slot), estimates_total moving by exactly N, and a
// client-observed p99 latency under the -p99 bound (default 1ms).
//
// Usage:
//
//	pariobench                          # spawn an in-process server
//	pariobench -addr 127.0.0.1:8080     # drive a running daemon
//	pariobench -n 200 -c 16 -hot 0.9
//	pariobench -sweep 'app=fft&procs=1,2,4&opt=both'
//	pariobench -estimate -n 500
//	pariobench -cluster 127.0.0.1:7471,127.0.0.1:7472,127.0.0.1:7473 -n 24
//
// With -cluster it drives a running sharded cluster (every listed node) and
// verifies the cluster contract: the same key answers byte-identical bodies
// from every node, the cluster-wide runs_total moves by exactly the number
// of unique cold keys — one simulation per key no matter which node is
// asked — and a repeat pass is all cache with zero new simulations anywhere.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pario/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pariobench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", "", "daemon address; empty spawns an in-process server")
		n         = fs.Int("n", 60, "total requests to fire")
		c         = fs.Int("c", 8, "concurrent clients")
		hot       = fs.Float64("hot", 0.8, "fraction of requests drawn from the small hot set")
		sweep     = fs.String("sweep", "", "sweep spec as /sweep query parameters; runs the sweep drive instead of the mixed stream")
		estimate  = fs.Bool("estimate", false, "drive /run?mode=estimate and verify the estimate contract")
		p99Bound  = fs.Duration("p99", time.Millisecond, "estimate drive: maximum acceptable p99 latency")
		clusterAt = fs.String("cluster", "", "comma-separated node addresses of a running sharded cluster; runs the cluster contract drive")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *n < 1 || *c < 1 || *hot < 0 || *hot > 1 {
		fmt.Fprintln(stderr, "pariobench: need -n >= 1, -c >= 1, 0 <= -hot <= 1")
		return 2
	}
	if *clusterAt != "" {
		return clusterDrive(*clusterAt, *n, stdout, stderr)
	}

	base := "http://" + *addr
	if *addr == "" {
		srv := serve.New(serve.Options{})
		bound, err := srv.Start("127.0.0.1:0")
		if err != nil {
			fmt.Fprintf(stderr, "pariobench: %v\n", err)
			return 1
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		}()
		base = "http://" + bound.String()
		fmt.Fprintf(stdout, "pariobench: spawned in-process server on %s\n", base)
	}

	if *sweep != "" {
		return sweepDrive(base, *sweep, stdout, stderr)
	}
	if *estimate {
		return estimateDrive(base, *n, *p99Bound, stdout, stderr)
	}

	before, err := fetchMetrics(base)
	if err != nil {
		fmt.Fprintf(stderr, "pariobench: %v\n", err)
		return 1
	}

	// The request mix is a deterministic function of the request index, so
	// reruns against a warm daemon reproduce the same stream. Hot requests
	// rotate through two cheap configurations; cold requests walk distinct
	// scf30 cache ratios (1..89, never the default 90) so each is a new key.
	reqFor := func(i int) serve.Request {
		if (i*13)%100 < int(*hot*100) {
			if i%2 == 0 {
				return serve.Request{App: "scf11", Input: "SMALL"}
			}
			return serve.Request{App: "fft"}
		}
		return serve.Request{App: "scf30", Input: "SMALL", CachedPct: 1 + i%89}
	}

	var (
		mu                          sync.Mutex
		hits, misses, shared, fails int
	)
	start := time.Now()
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < *c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				outcome, err := fire(base, reqFor(i))
				mu.Lock()
				switch {
				case err != nil:
					fails++
					fmt.Fprintf(stderr, "pariobench: request %d: %v\n", i, err)
				case outcome == "hit", outcome == "l2":
					hits++
				case outcome == "miss":
					misses++
				case outcome == "shared":
					shared++
				default:
					fails++
					fmt.Fprintf(stderr, "pariobench: request %d: cache outcome %q\n", i, outcome)
				}
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < *n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	elapsed := time.Since(start)

	after, err := fetchMetrics(base)
	if err != nil {
		fmt.Fprintf(stderr, "pariobench: %v\n", err)
		return 1
	}

	served := hits + misses + shared
	runs := after.RunsTotal - before.RunsTotal
	fmt.Fprintf(stdout, "pariobench: %d requests in %.2fs (%.1f req/s), %d concurrent clients\n",
		*n, elapsed.Seconds(), float64(*n)/elapsed.Seconds(), *c)
	fmt.Fprintf(stdout, "pariobench: %d hits, %d misses, %d shared, %d failed — hit rate %.1f%%\n",
		hits, misses, shared, fails, 100*float64(hits+shared)/float64(max(served, 1)))
	fmt.Fprintf(stdout, "pariobench: simulations executed: %d (misses observed: %d)\n", runs, misses)

	if fails > 0 {
		fmt.Fprintf(stderr, "pariobench: FAIL: %d requests failed\n", fails)
		return 1
	}
	if runs != int64(misses) {
		fmt.Fprintf(stderr, "pariobench: FAIL: run counter moved by %d but only %d misses were served — the cached path re-simulated\n",
			runs, misses)
		return 1
	}
	fmt.Fprintln(stdout, "pariobench: OK: every simulation is accounted for by a cache miss; cached path never re-simulates")
	return 0
}

// clusterDrive verifies the sharded-cluster contract against a running
// cluster of the listed nodes:
//
//  1. every node answers byte-identical bodies (and the same cache key) for
//     the same request — ownership and proxying are invisible in the result
//  2. the cluster-wide runs_total moves by exactly the number of unique
//     cold keys driven: one simulation per key, no matter how many nodes
//     were asked — the cluster-wide singleflight-by-construction invariant
//  3. a repeat pass over the same keys is all cache (hit/l2) everywhere and
//     moves no run counter on any node
func clusterDrive(addrs string, n int, stdout, stderr io.Writer) int {
	var bases []string
	for _, a := range strings.Split(addrs, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		if !strings.Contains(a, "://") {
			a = "http://" + a
		}
		bases = append(bases, strings.TrimSuffix(a, "/"))
	}
	if len(bases) < 2 {
		fmt.Fprintln(stderr, "pariobench: -cluster needs at least 2 node addresses")
		return 2
	}

	sumRuns := func() (int64, error) {
		var total int64
		for _, b := range bases {
			m, err := fetchMetrics(b)
			if err != nil {
				return 0, fmt.Errorf("%s: %v", b, err)
			}
			if !m.ClusterEnabled {
				return 0, fmt.Errorf("%s is not in cluster mode", b)
			}
			total += m.RunsTotal
		}
		return total, nil
	}
	before, err := sumRuns()
	if err != nil {
		fmt.Fprintf(stderr, "pariobench: %v\n", err)
		return 1
	}

	// Distinct cold keys: each i names a different canonical request.
	reqFor := func(i int) serve.Request {
		return serve.Request{App: "scf30", Input: "SMALL", CachedPct: 1 + i%89, Procs: 4 * (1 + i/89)}
	}

	type answer struct {
		body  []byte
		cache string
		key   string
		owner string
	}
	ask := func(base string, req serve.Request) (answer, error) {
		body, err := json.Marshal(req)
		if err != nil {
			return answer{}, err
		}
		resp, err := http.Post(base+"/run", "application/json", bytes.NewReader(body))
		if err != nil {
			return answer{}, err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			return answer{}, err
		}
		if resp.StatusCode != http.StatusOK {
			return answer{}, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
		}
		return answer{
			body:  b,
			cache: resp.Header.Get("X-Pario-Cache"),
			key:   resp.Header.Get("X-Pario-Key"),
			owner: resp.Header.Get("X-Pario-Owner"),
		}, nil
	}

	// Cold pass: every key is asked of every node, entry node rotating so
	// each node fronts some keys. Every answer for one key must agree
	// byte-for-byte regardless of which node was asked.
	ownerKeys := make(map[string]int)
	start := time.Now()
	for i := 0; i < n; i++ {
		req := reqFor(i)
		var first answer
		for j := 0; j < len(bases); j++ {
			base := bases[(i+j)%len(bases)]
			a, err := ask(base, req)
			if err != nil {
				fmt.Fprintf(stderr, "pariobench: key %d via %s: %v\n", i, base, err)
				return 1
			}
			if a.owner == "" {
				fmt.Fprintf(stderr, "pariobench: FAIL: %s answered without X-Pario-Owner — not proxying?\n", base)
				return 1
			}
			if j == 0 {
				first = a
				ownerKeys[a.owner]++
				continue
			}
			if !bytes.Equal(a.body, first.body) {
				fmt.Fprintf(stderr, "pariobench: FAIL: key %d: body from %s differs from first answer\n", i, base)
				return 1
			}
			if a.key != first.key || a.owner != first.owner {
				fmt.Fprintf(stderr, "pariobench: FAIL: key %d: nodes disagree on key/owner (%s/%s vs %s/%s)\n",
					i, a.key, a.owner, first.key, first.owner)
				return 1
			}
		}
	}
	elapsed := time.Since(start)

	afterCold, err := sumRuns()
	if err != nil {
		fmt.Fprintf(stderr, "pariobench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "pariobench: %d keys x %d nodes in %.2fs; owner spread: %v\n",
		n, len(bases), elapsed.Seconds(), ownerKeys)
	if runs := afterCold - before; runs != int64(n) {
		fmt.Fprintf(stderr, "pariobench: FAIL: cluster-wide runs_total moved by %d for %d unique cold keys — a key simulated on more than one node\n",
			runs, n)
		return 1
	}

	// Repeat pass: all cache, everywhere, zero new simulations.
	for i := 0; i < n; i++ {
		req := reqFor(i)
		for _, base := range bases {
			a, err := ask(base, req)
			if err != nil {
				fmt.Fprintf(stderr, "pariobench: repeat key %d via %s: %v\n", i, base, err)
				return 1
			}
			if a.cache != "hit" && a.cache != "l2" {
				fmt.Fprintf(stderr, "pariobench: FAIL: repeat key %d via %s was %q, want hit or l2\n", i, base, a.cache)
				return 1
			}
		}
	}
	final, err := sumRuns()
	if err != nil {
		fmt.Fprintf(stderr, "pariobench: %v\n", err)
		return 1
	}
	if final != afterCold {
		fmt.Fprintf(stderr, "pariobench: FAIL: repeat pass re-simulated (%d -> %d)\n", afterCold, final)
		return 1
	}
	fmt.Fprintf(stdout, "pariobench: OK: bodies byte-identical from every node, %d runs for %d keys, repeat pass all-cache\n", n, n)
	return 0
}

// fire posts one run request and returns its X-Pario-Cache outcome,
// retrying briefly on 429 so backpressure sheds load without failing the
// drive.
func fire(base string, req serve.Request) (string, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	for attempt := 0; ; attempt++ {
		resp, err := http.Post(base+"/run", "application/json", bytes.NewReader(body))
		if err != nil {
			return "", err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusOK:
			return resp.Header.Get("X-Pario-Cache"), nil
		case resp.StatusCode == http.StatusTooManyRequests && attempt < 50:
			time.Sleep(100 * time.Millisecond)
		default:
			return "", fmt.Errorf("status %d", resp.StatusCode)
		}
	}
}

// sweepDrive fires one /sweep, then checks the batch contract against the
// daemon's own counters and a point-by-point replay through /run:
//
//  1. streamed lines == expanded points (header, summary, and the
//     sweep_points_total metric delta all agree)
//  2. runs_total moved by exactly the cold (miss) points
//  3. every line's embedded body is byte-identical to /run on the request
//     that body carries
//  4. a repeat sweep is all cache hits and re-simulates nothing
func sweepDrive(base, spec string, stdout, stderr io.Writer) int {
	before, err := fetchMetrics(base)
	if err != nil {
		fmt.Fprintf(stderr, "pariobench: %v\n", err)
		return 1
	}
	start := time.Now()
	lines, sum, hdrPoints, err := fireSweep(base, spec)
	if err != nil {
		fmt.Fprintf(stderr, "pariobench: sweep: %v\n", err)
		return 1
	}
	elapsed := time.Since(start)
	after, err := fetchMetrics(base)
	if err != nil {
		fmt.Fprintf(stderr, "pariobench: %v\n", err)
		return 1
	}

	var hits, misses, shared, failed int
	for _, ln := range lines {
		switch {
		case ln.Error != "":
			failed++
			fmt.Fprintf(stderr, "pariobench: point %d failed (%s): %s\n", ln.Point, ln.Class, ln.Error)
		case ln.Cache == "hit":
			hits++
		case ln.Cache == "shared":
			shared++
		default:
			misses++
		}
	}
	fmt.Fprintf(stdout, "pariobench: sweep %q: %d points in %.2fs (%d cold, %d hit, %d shared, %d skipped, %d deduped)\n",
		spec, len(lines), elapsed.Seconds(), misses, hits, shared, sum.Skipped, sum.Deduped)
	if failed > 0 {
		fmt.Fprintf(stderr, "pariobench: FAIL: %d sweep points failed\n", failed)
		return 1
	}
	pointsDelta := after.SweepPointsTotal - before.SweepPointsTotal
	if len(lines) != hdrPoints || sum.Points != hdrPoints || pointsDelta != int64(hdrPoints) {
		fmt.Fprintf(stderr, "pariobench: FAIL: point accounting disagrees: %d lines, %d header, %d summary, %d metric delta\n",
			len(lines), hdrPoints, sum.Points, pointsDelta)
		return 1
	}
	if runs := after.RunsTotal - before.RunsTotal; runs != int64(misses) {
		fmt.Fprintf(stderr, "pariobench: FAIL: run counter moved by %d but the sweep served %d cold points\n", runs, misses)
		return 1
	}

	// Replay every point through /run: the interactive path must return the
	// exact bytes the sweep streamed (all from cache now — the sweep seeded it).
	for _, ln := range lines {
		var res struct {
			Request serve.Request `json:"request"`
		}
		if err := json.Unmarshal([]byte(ln.Body), &res); err != nil {
			fmt.Fprintf(stderr, "pariobench: FAIL: point %d body does not decode: %v\n", ln.Point, err)
			return 1
		}
		runBody, err := fireBody(base, res.Request)
		if err != nil {
			fmt.Fprintf(stderr, "pariobench: FAIL: point %d via /run: %v\n", ln.Point, err)
			return 1
		}
		if !bytes.Equal([]byte(ln.Body), runBody) {
			fmt.Fprintf(stderr, "pariobench: FAIL: point %d: sweep body differs from /run body\n", ln.Point)
			return 1
		}
	}
	fmt.Fprintf(stdout, "pariobench: all %d bodies byte-identical via /run\n", len(lines))

	// The repeat sweep must be pure cache: every point a hit, zero new runs.
	lines2, sum2, _, err := fireSweep(base, spec)
	if err != nil {
		fmt.Fprintf(stderr, "pariobench: repeat sweep: %v\n", err)
		return 1
	}
	final, err := fetchMetrics(base)
	if err != nil {
		fmt.Fprintf(stderr, "pariobench: %v\n", err)
		return 1
	}
	for _, ln := range lines2 {
		if ln.Cache != "hit" {
			fmt.Fprintf(stderr, "pariobench: FAIL: repeat sweep point %d was %q, want hit\n", ln.Point, ln.Cache)
			return 1
		}
	}
	if sum2.CacheHits != len(lines2) || final.RunsTotal != after.RunsTotal {
		fmt.Fprintf(stderr, "pariobench: FAIL: repeat sweep re-simulated (hits %d/%d, runs %d -> %d)\n",
			sum2.CacheHits, len(lines2), after.RunsTotal, final.RunsTotal)
		return 1
	}
	fmt.Fprintln(stdout, "pariobench: OK: points == lines == metrics, runs == cold points, repeat sweep all-cache")
	return 0
}

// estimateDrive fires n sequential /run?mode=estimate requests over a
// deterministic mix of the request space and checks the estimate contract:
// every answer 200, runs_total unmoved (the analytic path never consumes a
// scheduler slot), estimates_total moved by exactly n, and the
// client-observed p99 latency under bound.
func estimateDrive(base string, n int, bound time.Duration, stdout, stderr io.Writer) int {
	before, err := fetchMetrics(base)
	if err != nil {
		fmt.Fprintf(stderr, "pariobench: %v\n", err)
		return 1
	}

	// A deterministic walk across apps and parameters: repeats make cache
	// hits, the rotating scf30 ratio makes cold closed-form evaluations.
	reqFor := func(i int) serve.Request {
		switch i % 6 {
		case 0:
			return serve.Request{App: "scf11", Input: "SMALL"}
		case 1:
			return serve.Request{App: "scf11", Input: "LARGE", Version: "prefetch", Procs: 16}
		case 2:
			return serve.Request{App: "fft", Procs: 8, Opt: true}
		case 3:
			return serve.Request{App: "btio", Procs: 16, Opt: i%2 == 0}
		case 4:
			return serve.Request{App: "ast", Procs: 16}
		default:
			return serve.Request{App: "scf30", CachedPct: 1 + i%89}
		}
	}

	lats := make([]time.Duration, 0, n)
	var hits, misses int
	start := time.Now()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		outcome, err := fireMode(base, reqFor(i), "estimate")
		lat := time.Since(t0)
		if err != nil {
			fmt.Fprintf(stderr, "pariobench: estimate %d: %v\n", i, err)
			return 1
		}
		lats = append(lats, lat)
		if outcome == "hit" {
			hits++
		} else {
			misses++
		}
	}
	elapsed := time.Since(start)

	after, err := fetchMetrics(base)
	if err != nil {
		fmt.Fprintf(stderr, "pariobench: %v\n", err)
		return 1
	}

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	p50, p99 := nearestRank(lats, 50), nearestRank(lats, 99)
	fmt.Fprintf(stdout, "pariobench: %d estimates in %.3fs (%.0f est/s), %d cold, %d hits\n",
		n, elapsed.Seconds(), float64(n)/elapsed.Seconds(), misses, hits)
	fmt.Fprintf(stdout, "pariobench: estimate latency p50 %s, p99 %s\n", p50, p99)

	if runs := after.RunsTotal - before.RunsTotal; runs != 0 {
		fmt.Fprintf(stderr, "pariobench: FAIL: estimate drive moved runs_total by %d — an estimate consumed a scheduler slot\n", runs)
		return 1
	}
	if got := after.EstimatesTotal - before.EstimatesTotal; got != int64(n) {
		fmt.Fprintf(stderr, "pariobench: FAIL: estimates_total moved by %d, want %d\n", got, n)
		return 1
	}
	if p99 > bound {
		fmt.Fprintf(stderr, "pariobench: FAIL: estimate p99 latency %s exceeds %s\n", p99, bound)
		return 1
	}
	fmt.Fprintln(stdout, "pariobench: OK: estimates never simulate, runs_total unmoved, p99 under bound")
	return 0
}

// nearestRank returns the pct-th percentile (1 <= pct <= 100) of the
// ascending, non-empty sorted sample by the nearest-rank method: the
// element at index ceil(pct/100·n)−1, computed in integers so no float
// rounding moves it.
func nearestRank(sorted []time.Duration, pct int) time.Duration {
	return sorted[(pct*len(sorted)+99)/100-1]
}

// fireMode posts one run request with a ?mode= selector and returns its
// X-Pario-Cache outcome.
func fireMode(base string, req serve.Request, mode string) (string, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	resp, err := http.Post(base+"/run?mode="+mode, "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %d", resp.StatusCode)
	}
	return resp.Header.Get("X-Pario-Cache"), nil
}

// fireSweep streams one /sweep and returns its point lines, summary, and
// the X-Pario-Sweep-Points header.
func fireSweep(base, spec string) ([]serve.SweepLine, serve.SweepSummary, int, error) {
	var sum serve.SweepSummary
	resp, err := http.Get(base + "/sweep?" + spec)
	if err != nil {
		return nil, sum, 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, sum, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, sum, 0, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	hdrPoints, err := strconv.Atoi(resp.Header.Get("X-Pario-Sweep-Points"))
	if err != nil {
		return nil, sum, 0, fmt.Errorf("X-Pario-Sweep-Points %q: %v", resp.Header.Get("X-Pario-Sweep-Points"), err)
	}
	rows := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(rows) == 0 {
		return nil, sum, 0, fmt.Errorf("empty stream")
	}
	if err := json.Unmarshal([]byte(rows[len(rows)-1]), &sum); err != nil || !sum.Done {
		return nil, sum, 0, fmt.Errorf("stream did not end with a done summary: %q", rows[len(rows)-1])
	}
	var lines []serve.SweepLine
	for _, row := range rows[:len(rows)-1] {
		var ln serve.SweepLine
		if err := json.Unmarshal([]byte(row), &ln); err != nil {
			return nil, sum, 0, fmt.Errorf("stream line %q: %v", row, err)
		}
		lines = append(lines, ln)
	}
	return lines, sum, hdrPoints, nil
}

// fireBody posts one run request and returns the full response body.
func fireBody(base string, req serve.Request) ([]byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(base+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

type metrics struct {
	RunsTotal        int64 `json:"runs_total"`
	CacheHits        int64 `json:"cache_hits"`
	SweepPointsTotal int64 `json:"sweep_points_total"`
	EstimatesTotal   int64 `json:"estimates_total"`
	ClusterEnabled   bool  `json:"cluster_enabled"`
}

func fetchMetrics(base string) (metrics, error) {
	var m metrics
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&m)
	return m, err
}
