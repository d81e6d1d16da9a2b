package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"pario/internal/core"
	"pario/internal/diskcache"
	"pario/internal/exp"
	"pario/internal/serve"
	sstats "pario/internal/stats"
	"pario/internal/trace"
)

// The cold grids hold this many keys per second of window: about three
// times what each stream completes on two cores, so neither runs dry on a
// faster build.
const (
	coldInteractivePerSecond = 60
	coldSweepPerSecond       = 200
)

// coldBucket is the sub-window serve-cold's figures are taken over.
const coldBucket = 5 * time.Second

// coldSamplePerApp is how many interactive requests per app family the
// benchmark re-executes itself after the window.
const coldSamplePerApp = 3

var coldApps = []string{"scf11", "scf30", "fft", "btio", "ast", "trace"}

type coldSetup struct {
	dir    string
	node   *node
	traces []*trace.Trace
	grid   []coldReq
	blocks []sweepBlock
}

func (st *coldSetup) stop() {
	st.node.stop()
	os.RemoveAll(st.dir)
}

// setupCold starts one node on a fresh L2, uploads the seeded traces and
// draws both cold grids.
func setupCold(e *env, rep int, seconds float64) (*coldSetup, error) {
	st := &coldSetup{dir: filepath.Join(e.workDir, fmt.Sprintf("cold-%d", rep))}
	n, err := startNode(filepath.Join(st.dir, "l2"), serve.Options{Workers: e.procs})
	if err != nil {
		return nil, err
	}
	st.node = n
	client := newClient(1)
	defer closeClient(client)
	st.traces = coldTraces(e.seed)
	for _, t := range st.traces {
		resp, err := client.Post(n.url+"/trace", "application/octet-stream", bytes.NewReader(t.EncodeBinary()))
		if err != nil {
			st.stop()
			return nil, err
		}
		var up struct {
			Trace string `json:"trace"`
		}
		err = json.NewDecoder(resp.Body).Decode(&up)
		resp.Body.Close()
		if err == nil && (resp.StatusCode != 200 || up.Trace != t.Hash()) {
			err = fmt.Errorf("uploading trace %s: status %d, hash %q", t.Hash(), resp.StatusCode, up.Trace)
		}
		if err != nil {
			st.stop()
			return nil, err
		}
	}
	st.grid, st.blocks, err = coldGrids(e.seed, st.traces,
		int(seconds*coldInteractivePerSecond)+64, int(seconds*coldSweepPerSecond)+64)
	if err != nil {
		st.stop()
		return nil, err
	}
	return st, nil
}

// coldSeen is one answer the window observed.
type coldSeen struct {
	lat  time.Duration
	body []byte // kept for sampled requests only
}

// sweepLine is a /sweep stream record: a point line or the closing summary.
type sweepLine struct {
	serve.SweepLine
	Done   bool `json:"done"`
	Failed int  `json:"failed"`
}

func runCold(e *env, seconds float64) (*outcome, error) {
	o := &outcome{}
	rep := 0
	st, err := timeSetup(o, 7, func() (*coldSetup, error) {
		rep++
		return setupCold(e, rep, seconds)
	}, (*coldSetup).stop)
	if err != nil {
		return nil, err
	}
	defer st.stop()

	// The sample: the first coldSamplePerApp interactive requests of each
	// app (faulted runs count under their app) and the first sweep block's
	// points.
	sampled := map[string]bool{}
	perApp := map[string]int{}
	var sample []coldReq
	for _, r := range st.grid {
		if perApp[r.canon.App] < coldSamplePerApp {
			perApp[r.canon.App]++
			sampled[r.key] = true
			sample = append(sample, r)
		}
	}
	for _, p := range st.blocks[0].points {
		sampled[p.Key] = true
		sample = append(sample, coldReq{canon: p.Req, key: p.Key})
	}

	url := st.node.url
	before := st.node.srv.MetricsSnapshot()
	exp.TakeStats()
	exp.TakeSnapshot()
	client := newClient(2)
	defer closeClient(client)
	var mu sync.Mutex // guards seen and o's failure counts
	seen := map[string]coldSeen{}
	record := func(key string, lat time.Duration, body []byte) {
		s := coldSeen{lat: lat}
		if sampled[key] {
			s.body = append([]byte(nil), body...)
		}
		mu.Lock()
		seen[key] = s
		mu.Unlock()
	}
	failf := func(format string, args ...any) {
		mu.Lock()
		o.fail(format, args...)
		mu.Unlock()
	}
	var attempted [2]int64
	start := time.Now()
	window := time.Duration(seconds * float64(time.Second))
	deadline := start.Add(window)
	// A coldBucket holds enough interactive misses for its p90.
	interactive := newSeries(start, coldBucket, window)
	sweepDone := newSeries(start, coldBucket, window)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // the interactive client: one /run at a time
		defer wg.Done()
		var buf bytes.Buffer
		for _, r := range st.grid {
			if !time.Now().Before(deadline) {
				return
			}
			attempted[0]++
			t0 := time.Now()
			resp, err := fetch(client, url+"/run?"+r.query, &buf)
			t1 := time.Now()
			switch {
			case err != nil:
				failf("%v", err)
				continue
			case resp.StatusCode != 200:
				failf("GET /run?%s: status %d: %s", r.query, resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
				continue
			case resp.Header.Get("X-Pario-Cache") != "miss" || resp.Header.Get("X-Pario-Key") != r.key:
				failf("GET /run?%s: cache %q, key %q, want a miss on %s", r.query,
					resp.Header.Get("X-Pario-Cache"), resp.Header.Get("X-Pario-Key"), r.key)
				continue
			}
			record(r.key, t1.Sub(t0), buf.Bytes())
			interactive.add(t0, float64(t1.Sub(t0).Nanoseconds()))
			e.tr.record(0, 0, "http.run", classMiss, 1, t0, t1)
		}
		failf("interactive grid ran dry")
	}()
	go func() { // the batch client: one /sweep at a time
		defer wg.Done()
		for _, b := range st.blocks {
			if !time.Now().Before(deadline) {
				return
			}
			attempted[1] += int64(len(b.points))
			if err := sweepOnce(e, client, url, b, record, failf, sweepDone); err != nil {
				failf("sweep %+v: %v", b.spec, err)
			}
		}
		failf("sweep grid ran dry")
	}()
	wg.Wait()
	after := st.node.srv.MetricsSnapshot()
	stats := exp.TakeStats()
	exp.TakeSnapshot()
	o.attempted = attempted[0] + attempted[1]

	if d := after.RunsTotal - before.RunsTotal; d != int64(len(seen)) {
		o.fail("runs_total moved by %d, but %d distinct misses were answered", d, len(seen))
	}
	// Figures per coldBucket, reported as the median bucket.
	o.p50Ms = interactive.p(50) / 1e6
	o.tailMs = interactive.p(90) / 1e6
	o.throughput = sweepDone.rate()
	o.display = []shown{
		{"miss_p50_ms", metric{o.p50Ms, "ms"}},
		{"miss_p90_ms", metric{o.tailMs, "ms"}},
		{"sweep_points_s", metric{o.throughput, "1/s"}},
		{"interactive_misses", metric{float64(interactive.count()), "count"}},
	}

	if err := checkColdSample(e, o, st, sample, seen); err != nil {
		return nil, err
	}
	if e.tr == nil {
		return o, nil
	}
	o.setLayer("serve.runs", float64(after.RunsTotal-before.RunsTotal))
	o.setLayer("sched.interactive_done", float64(after.DoneTotal-before.DoneTotal))
	o.setLayer("sched.batch_done", float64(after.BatchDoneTotal-before.BatchDoneTotal))
	o.setLayer("serve.rejected", float64(after.RejectedTotal-before.RejectedTotal))
	o.setLayer("exp.points", float64(stats.Points))
	o.setLayer("exp.concurrency", stats.WallSum.Seconds()/window.Seconds())
	o.setLayer("exp.point_ms_mean", float64(stats.WallSum.Nanoseconds())/1e6/float64(max(stats.Points, 1)))

	var encoded [][]byte
	for _, t := range st.traces {
		encoded = append(encoded, t.EncodeBinary())
	}
	var decErr error
	o.setLayer("trace.decode_us", loop(e, "trace.Decode", probeReps, len(encoded), func(i int) {
		if _, err := trace.Decode(encoded[i]); err != nil && decErr == nil {
			decErr = err
		}
	})/1e3)
	o.setLayer("trace.hash_us", loop(e, "trace.Hash", probeReps, len(st.traces), func(i int) {
		sinkKey = st.traces[i].Hash()
	})/1e3)
	return o, decErr
}

// sweepOnce streams one /sweep block, checking every point line against
// the block's expected keys and recording each point's arrival in done.
func sweepOnce(e *env, client *http.Client, url string, b sweepBlock,
	record func(string, time.Duration, []byte), failf func(string, ...any), done *series) error {
	spec, err := json.Marshal(b.spec)
	if err != nil {
		return err
	}
	t0 := time.Now()
	resp, err := client.Post(url+"/sweep", "application/json", bytes.NewReader(spec))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	got := 0
	for sc.Scan() {
		var l sweepLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return fmt.Errorf("decoding stream line: %w", err)
		}
		if l.Done {
			if l.Failed != 0 || got != len(b.points) {
				return fmt.Errorf("summary: %d failed, %d of %d points answered", l.Failed, got, len(b.points))
			}
			return nil
		}
		t1 := time.Now()
		if l.Point < 0 || l.Point >= len(b.points) || l.Error != "" || l.Cache != "miss" || l.Key != b.points[l.Point].Key {
			failf("sweep point %d: cache %q, key %q, error %q", l.Point, l.Cache, l.Key, l.Error)
			continue
		}
		got++
		done.add(t1, 1) // a point counts in the bucket it completed in
		record(l.Key, t1.Sub(t0), []byte(l.Body))
		e.tr.record(0, 0, "http.sweep", classMiss, 1, t0, t1)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("stream ended without a summary")
}

// checkColdSample re-executes the sample outside the window, through the
// same public calls the server makes (Execute or ExecuteTrace, Encode, an
// L1 Put, an L2 Put), and compares each result with the body the window
// observed for that key. Traced runs also derive the cold-path per-layer
// metrics from these calls.
func checkColdSample(e *env, o *outcome, st *coldSetup, sample []coldReq, seen map[string]coldSeen) error {
	l2, err := diskcache.Open(filepath.Join(st.dir, "probe-l2"), 0)
	if err != nil {
		return err
	}
	defer l2.Close()
	l1 := serve.NewCache(512) // the server's default L1 bounds
	ctx := context.Background()
	snap := &sstats.Snapshot{}
	var events uint64
	var execNs float64
	var queueMs, bodiesLen []float64
	var bodies [][]byte
	compared := 0
	for _, r := range sample {
		t0 := time.Now()
		var rep core.Report
		if r.canon.App == "trace" {
			rep, err = serve.ExecuteTrace(ctx, r.canon, 0, r.tr)
		} else {
			rep, err = serve.Execute(ctx, r.canon)
		}
		t1 := time.Now()
		if err != nil {
			o.fail("executing %s: %v", r.key, err)
			continue
		}
		body, err := serve.Encode(r.canon, rep)
		t2 := time.Now()
		if err != nil {
			o.fail("encoding %s: %v", r.key, err)
			continue
		}
		l1.Put(r.key, body)
		t3 := time.Now()
		if err := l2.Put(r.key, body); err != nil {
			o.fail("diskcache put %s: %v", r.key, err)
			continue
		}
		t4 := time.Now()
		e.tr.record(0, 0, "serve.Execute", r.canon.App, 1, t0, t1)
		e.tr.record(0, 0, "serve.Encode", "", 1, t1, t2)
		e.tr.record(0, 0, "diskcache.Put", "", 1, t3, t4)
		events += rep.Events
		execNs += float64(t1.Sub(t0).Nanoseconds())
		snap.Merge(rep.Stats)
		bodies = append(bodies, body)
		bodiesLen = append(bodiesLen, float64(len(body)))
		s, ok := seen[r.key]
		if !ok || s.body == nil {
			continue
		}
		compared++
		if !bytes.Equal(s.body, body) {
			o.fail("%s: served body differs from Encode(Execute(..))", r.key)
		}
		if r.query != "" {
			queueMs = append(queueMs, float64((s.lat-t4.Sub(t0)+t3.Sub(t2)).Nanoseconds())/1e6)
		}
	}
	if compared == 0 {
		o.fail("no sampled cold body was observed in the window")
	}
	if e.tr == nil || len(bodies) == 0 {
		return nil
	}
	for _, app := range coldApps {
		o.setLayer("apps.exec_ms."+app, median(e.tr.perCall("serve.Execute", app))/1e6)
	}
	o.setLayer("sim.events", float64(events))
	o.setLayer("sim.ns_per_event", execNs/float64(max(events, 1)))
	setSnapCounters(o, snap)
	o.setLayer("serve.encode_us", median(e.tr.perCall("serve.Encode", ""))/1e3)
	o.setLayer("diskcache.put_us", median(e.tr.perCall("diskcache.Put", ""))/1e3)
	o.setLayer("serve.queue_ms", median(queueMs))
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x", i)
	}
	cache := serve.NewCache(512)
	o.setLayer("serve.l1_put_ns", loop(e, "serve.Cache.Put", probeReps, 20000, func(i int) {
		cache.Put(keys[i%len(keys)], bodies[i%len(bodies)])
	}))
	return nil
}
