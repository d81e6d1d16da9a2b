package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"pario/internal/cluster"
	"pario/internal/diskcache"
	"pario/internal/exp"
	"pario/internal/serve"
)

// hotL1Bytes bounds each node's L1 below the hot set's ~5 MB, so part of
// the hot traffic is answered from L2.
const hotL1Bytes = 2 << 20

type hotKey struct {
	canon serve.Request
	key   string
	url   string // /run on node 0
	owner int    // index into hotSetup.nodes
	body  []byte // recorded during warm-up
}

type hotSetup struct {
	dir   string
	nodes []*node
	ring  *cluster.Ring // node 0's view
	keys  []hotKey
}

func (st *hotSetup) stop() {
	for _, n := range st.nodes {
		n.stop()
	}
	os.RemoveAll(st.dir)
}

// setupHot starts two clustered nodes and warms the hot set, each key
// through its owner, so node 0 holds only the keys it owns.
func setupHot(e *env, rep int) (*hotSetup, error) {
	st := &hotSetup{dir: filepath.Join(e.workDir, fmt.Sprintf("hot-%d", rep))}
	for i := 0; i < 2; i++ {
		n, err := startNode(filepath.Join(st.dir, fmt.Sprintf("l2-%d", i)), serve.Options{
			Workers: e.procs, CacheEntries: 4096, CacheBytes: hotL1Bytes,
		})
		if err != nil {
			st.stop()
			return nil, err
		}
		st.nodes = append(st.nodes, n)
	}
	peers := []string{st.nodes[0].url, st.nodes[1].url}
	for i, n := range st.nodes {
		ring, err := cluster.New(peers, i)
		if err != nil {
			st.stop()
			return nil, err
		}
		n.srv.SetCluster(ring)
		if i == 0 {
			st.ring = ring
		}
	}
	for _, c := range hotSet(e.seed) {
		k := hotKey{canon: c, key: c.Key(), url: st.nodes[0].url + "/run?" + runQuery(c)}
		if st.ring.Owner(k.key).URL != st.nodes[0].url {
			k.owner = 1
		}
		st.keys = append(st.keys, k)
	}

	client := newClient(e.clients)
	defer closeClient(client)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var next int
	var warmErr error
	for c := 0; c < e.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(st.keys) {
					return
				}
				k := &st.keys[i]
				resp, err := fetch(client, st.nodes[k.owner].url+"/run?"+runQuery(k.canon), &buf)
				if err == nil && (resp.StatusCode != 200 || resp.Header.Get("X-Pario-Key") != k.key) {
					err = fmt.Errorf("warming %s: status %d, key %q", k.key, resp.StatusCode, resp.Header.Get("X-Pario-Key"))
				}
				mu.Lock()
				if err != nil && warmErr == nil {
					warmErr = err
				}
				mu.Unlock()
				k.body = append([]byte(nil), buf.Bytes()...)
			}
		}()
	}
	wg.Wait()
	// Warm-up simulated through the experiment runner; drop its accounting.
	exp.TakeStats()
	exp.TakeSnapshot()
	if warmErr != nil {
		st.stop()
		return nil, warmErr
	}
	return st, nil
}

// hotClient is one closed-loop client's record of the window.
type hotClient struct {
	lat       *series        // answered requests' latency, ns
	estimates map[int]uint64 // sampled estimate index -> body hash
	attempted int64
	failed    []string
}

func runHot(e *env, seconds float64) (*outcome, error) {
	o := &outcome{}
	rep := 0
	st, err := timeSetup(o, 3, func() (*hotSetup, error) {
		rep++
		return setupHot(e, rep)
	}, (*hotSetup).stop)
	if err != nil {
		return nil, err
	}
	defer st.stop()

	self := st.nodes[0].url
	before := [2]serve.Metrics{st.nodes[0].srv.MetricsSnapshot(), st.nodes[1].srv.MetricsSnapshot()}
	touched := make([]atomic.Bool, len(st.keys))
	var nextEstimate atomic.Int64
	client := newClient(e.clients)
	defer closeClient(client)
	clients := make([]*hotClient, e.clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for c := range clients {
		hc := &hotClient{lat: newSeries(start, time.Second, deadline.Sub(start)), estimates: map[int]uint64{}}
		clients[c] = hc
		stream := newHotStream(e.seed, c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Now().Before(deadline) {
				op := stream.next()
				var k *hotKey
				var u string
				est, first := -1, false
				if op.estimate {
					est = int(nextEstimate.Add(1) - 1)
					u = self + "/run?mode=estimate&" + runQuery(estimateReq(e.seed, est))
				} else {
					k = &st.keys[op.rank]
					u = k.url
					first = k.owner != 0 && !touched[op.rank].Swap(true)
				}
				hc.attempted++
				t0 := time.Now()
				resp, err := fetch(client, u, &buf)
				t1 := time.Now()
				switch {
				case err != nil:
					hc.failed = append(hc.failed, err.Error())
					continue
				case resp.StatusCode != 200:
					hc.failed = append(hc.failed, fmt.Sprintf("GET %s: status %d", u, resp.StatusCode))
					continue
				case k != nil && (!bytes.Equal(buf.Bytes(), k.body) || resp.Header.Get("X-Pario-Key") != k.key):
					hc.failed = append(hc.failed, fmt.Sprintf("GET %s: body differs from warm-up", u))
					continue
				}
				if est >= 0 && est%8 == 0 {
					hc.estimates[est] = fnv64(buf.Bytes())
				}
				hc.lat.add(t0, float64(t1.Sub(t0).Nanoseconds()))
				if e.tr != nil {
					class := classify(op.estimate, resp.Header.Get("X-Pario-Cache"), resp.Header.Get("X-Pario-Owner"), self, first)
					e.tr.record(0, 0, "http.run", class, 1, t0, t1)
				}
			}
		}()
	}
	wg.Wait()
	after := [2]serve.Metrics{st.nodes[0].srv.MetricsSnapshot(), st.nodes[1].srv.MetricsSnapshot()}

	lat := newSeries(start, time.Second, deadline.Sub(start))
	estimates := map[int]uint64{}
	for _, hc := range clients {
		o.attempted += hc.attempted
		for _, f := range hc.failed {
			o.fail("%s", f)
		}
		lat.merge(hc.lat)
		for i, h := range hc.estimates {
			estimates[i] = h
		}
	}
	for i := range after {
		if d := after[i].RunsTotal - before[i].RunsTotal; d != 0 {
			o.fail("node %d simulated %d runs during the hot window", i, d)
		}
	}
	for i, h := range estimates {
		c, err := serve.Canonicalize(estimateReq(e.seed, i))
		if err != nil {
			return nil, err
		}
		est, err := serve.EstimateFor(c)
		if err != nil {
			return nil, err
		}
		body, err := serve.EncodeEstimate(c, est)
		if err != nil {
			return nil, err
		}
		if fnv64(body) != h {
			o.fail("estimate %d: body differs from EncodeEstimate", i)
		}
	}

	// Per-second figures, reported as the median second.
	o.p50Ms = lat.p(50) / 1e6
	o.tailMs = lat.p(99) / 1e6
	o.throughput = lat.rate()
	o.display = []shown{
		{"hot_p50_us", metric{o.p50Ms * 1000, "us"}},
		{"hot_p99_us", metric{o.tailMs * 1000, "us"}},
		{"hot_rps", metric{o.throughput, "1/s"}},
		{"answers", metric{float64(lat.count()), "count"}},
	}
	if e.tr == nil {
		return o, nil
	}

	spans := e.tr.perCall("http.run", "")
	answers := float64(max(len(spans), 1))
	frac := func(c string) float64 { return float64(len(e.tr.perCall("http.run", c))) / answers }
	us := func(c string) float64 { return median(e.tr.perCall("http.run", c)) / 1e3 }
	o.setLayer("serve.l1_frac", frac(classL1))
	o.setLayer("serve.l2_frac", frac(classL2))
	o.setLayer("roofline.estimate_frac", frac(classEstimate))
	o.setLayer("serve.l1_p50_us", us(classL1))
	o.setLayer("serve.l2_p50_us", us(classL2))
	o.setLayer("cluster.proxied_frac", float64(after[0].PeerProxiedTotal-before[0].PeerProxiedTotal)/answers)
	local := append(append([]float64(nil), e.tr.perCall("http.run", classL1)...), e.tr.perCall("http.run", classL2)...)
	o.setLayer("cluster.proxy_hop_us", (median(e.tr.perCall("http.run", classProxied))-median(local))/1e3)
	if err := hotProbes(e, o, st); err != nil {
		return nil, err
	}
	o.setLayer("serve.transport_us", o.layer["serve.l1_p50_us"].Value-
		(o.layer["serve.canon_ns"].Value+o.layer["serve.l1_get_ns"].Value)/1e3)
	return o, nil
}

// sinkKey keeps probe results alive so the compiler cannot drop the calls.
var sinkKey string

// loop times reps runs of calls calls to fn as spans named name and
// returns the median nanoseconds per call.
func loop(e *env, name string, reps, calls int, fn func(i int)) float64 {
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			fn(i)
		}
		e.tr.record(0, 0, name, "", calls, t0, time.Now())
	}
	return median(e.tr.perCall(name, ""))
}

// hotProbes times the in-process stages of a hot answer on the hot set.
func hotProbes(e *env, o *outcome, st *hotSetup) error {
	keys := st.keys
	ranks := make([]int, 1<<14)
	stream := newHotStream(e.seed, 99)
	for i := range ranks {
		ranks[i] = stream.z.draw(stream.r)
	}
	o.setLayer("serve.canon_ns", loop(e, "serve.Canonicalize+Key", probeReps, 20000, func(i int) {
		c, _ := serve.Canonicalize(keys[i%len(keys)].canon)
		sinkKey = c.Key()
	}))
	l1 := serve.NewCacheBytes(4096, hotL1Bytes)
	for _, k := range keys {
		l1.Put(k.key, k.body)
	}
	o.setLayer("serve.l1_get_ns", loop(e, "serve.Cache.Get", probeReps, 200000, func(i int) {
		b, _ := l1.Get(keys[ranks[i%len(ranks)]].key)
		if len(b) > 0 {
			sinkKey = keys[0].key
		}
	}))
	dc, err := diskcache.Open(filepath.Join(st.dir, "probe-l2"), 0)
	if err != nil {
		return err
	}
	defer dc.Close()
	for _, k := range keys {
		if err := dc.Put(k.key, k.body); err != nil {
			return err
		}
	}
	o.setLayer("diskcache.get_us", loop(e, "diskcache.Get", probeReps, 1000, func(i int) {
		if _, ok := dc.Get(keys[ranks[i%len(ranks)]].key); !ok {
			o.fail("diskcache probe: lost %s", keys[ranks[i%len(ranks)]].key)
		}
	})/1e3)
	o.setLayer("cluster.owner_ns", loop(e, "cluster.Ring.Owner", probeReps, 50000, func(i int) {
		sinkKey = st.ring.Owner(keys[i%len(keys)].key).URL
	}))
	reqs := make([]serve.Request, 500)
	for i := range reqs {
		c, err := serve.Canonicalize(estimateReq(e.seed, estimateSpace-1-i))
		if err != nil {
			return err
		}
		reqs[i] = c
	}
	var estErr error
	o.setLayer("roofline.estimate_us", loop(e, "serve.EstimateFor+EncodeEstimate", probeReps, len(reqs), func(i int) {
		est, err := serve.EstimateFor(reqs[i])
		if err == nil {
			_, err = serve.EncodeEstimate(reqs[i], est)
		}
		if err != nil && estErr == nil {
			estErr = err
		}
	})/1e3)
	return estErr
}
