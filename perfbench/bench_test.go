package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"pario/internal/serve"
)

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{[]float64{15, 20, 35, 40, 50}, 5, 15},
		{[]float64{15, 20, 35, 40, 50}, 30, 20},
		{[]float64{15, 20, 35, 40, 50}, 40, 20},
		{[]float64{15, 20, 35, 40, 50}, 50, 35},
		{[]float64{15, 20, 35, 40, 50}, 100, 50},
		{[]float64{20, 3, 16, 8, 13, 7, 15, 8, 10, 6}, 25, 7},
		{[]float64{20, 3, 16, 8, 13, 7, 15, 8, 10, 6}, 50, 8},
		{[]float64{20, 3, 16, 8, 13, 7, 15, 8, 10, 6}, 75, 15},
		{[]float64{20, 3, 16, 8, 13, 7, 15, 8, 10, 6}, 90, 16},
		{[]float64{20, 3, 16, 8, 13, 7, 15, 8, 10, 6}, 99, 20},
		{[]float64{42}, 1, 42},
		{[]float64{42}, 99, 42},
		{nil, 50, 0},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", c.xs, c.p, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	percentile(xs, 50)
	if !reflect.DeepEqual(xs, []float64{3, 1, 2}) {
		t.Errorf("percentile reordered its input: %v", xs)
	}
}

func TestSeriesMedianBucket(t *testing.T) {
	s := time.Second
	t0 := time.Unix(1000, 0)
	a := newSeries(t0, s, 3*s)
	for i, at := range []time.Duration{0, s / 2, s, 3 * s / 2, 2 * s, 3 * s} {
		a.add(t0.Add(at), float64(i+1))
	}
	b := newSeries(t0, s, 3*s)
	b.add(t0.Add(5*s/2), 7)
	b.add(t0.Add(-1), 8)
	a.merge(b)
	want := [][]float64{{1, 2}, {3, 4}, {5, 7}}
	if !reflect.DeepEqual(a.buckets, want) {
		t.Fatalf("buckets = %v, want %v (values outside the window dropped)", a.buckets, want)
	}
	if got := a.p(50); got != 3 {
		t.Errorf("median bucket p50 = %g, want 3", got)
	}
	if got := a.rate(); got != 2 {
		t.Errorf("median bucket rate = %g/s, want 2", got)
	}
	if got := a.count(); got != 6 {
		t.Errorf("count = %d, want 6", got)
	}
	short := newSeries(t0, 5*s, 2*s) // a window shorter than the bucket is one bucket
	short.add(t0.Add(s), 1)
	if len(short.buckets) != 1 || short.rate() != 0.5 {
		t.Errorf("short window: %d buckets, rate %g, want 1 bucket at 0.5/s", len(short.buckets), short.rate())
	}
}

func hotOps(seed uint64, client, n int) []hotOp {
	s := newHotStream(seed, client)
	out := make([]hotOp, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func TestHotStreamSeeded(t *testing.T) {
	a, b := hotOps(7, 0, 2000), hotOps(7, 0, 2000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed and client gave different hot streams")
	}
	if reflect.DeepEqual(a, hotOps(8, 0, 2000)) {
		t.Error("a different seed gave the same hot stream")
	}
	if reflect.DeepEqual(a, hotOps(7, 1, 2000)) {
		t.Error("two clients of one seed share a hot stream")
	}
	estimates := 0
	for _, op := range a {
		if op.estimate {
			estimates++
		} else if op.rank < 0 || op.rank >= hotSetSize {
			t.Fatalf("rank %d outside the hot set", op.rank)
		}
	}
	if frac := float64(estimates) / float64(len(a)); frac < 0.07 || frac > 0.13 {
		t.Errorf("estimate share %.3f, want about %.2f", frac, hotEstimatePct)
	}
}

func TestHotSetSeeded(t *testing.T) {
	a, b := hotSet(3), hotSet(3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different hot sets")
	}
	if reflect.DeepEqual(a, hotSet(4)) {
		t.Error("a different seed gave the same hot set")
	}
	seen := map[string]bool{}
	for _, r := range a {
		if k := r.Key(); seen[k] {
			t.Fatalf("hot set repeats %s", k)
		} else {
			seen[k] = true
		}
	}
}

func TestEstimateKeysFresh(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 20000; i++ {
		c, err := serve.Canonicalize(estimateReq(5, i))
		if err != nil {
			t.Fatalf("estimate %d: %v", i, err)
		}
		k := c.Key()
		if seen[k] {
			t.Fatalf("estimate %d repeats key %s", i, k)
		}
		seen[k] = true
	}
	if reflect.DeepEqual(estimateReq(5, 0), estimateReq(6, 0)) {
		t.Error("a different seed gave the same estimate walk")
	}
}

// coldKeys lists every key a cold run may request, interactive first.
func coldKeys(t *testing.T, seed uint64) ([]string, []coldReq) {
	t.Helper()
	grid, blocks, err := coldGrids(seed, coldTraces(seed), 1500, 1500)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, r := range grid {
		keys = append(keys, r.key)
	}
	for _, b := range blocks {
		for _, p := range b.points {
			keys = append(keys, p.Key)
		}
	}
	return keys, grid
}

func TestColdGridsSeededAndDistinct(t *testing.T) {
	a, grid := coldKeys(t, 11)
	b, _ := coldKeys(t, 11)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different cold grids")
	}
	if c, _ := coldKeys(t, 12); reflect.DeepEqual(a, c) {
		t.Error("a different seed gave the same cold grids")
	}
	seen := map[string]bool{}
	for _, k := range a {
		if seen[k] {
			t.Fatalf("cold key %s drawn twice", k)
		}
		seen[k] = true
	}
	apps := map[string]int{}
	faulted := 0
	for _, r := range grid {
		apps[r.canon.App]++
		if r.canon.Faults != "" {
			faulted++
			if strings.Contains(r.canon.Faults, "fail") || strings.Contains(r.canon.Faults, "crash") {
				t.Errorf("fault plan %q is not survivable", r.canon.Faults)
			}
		}
		if r.canon.App == "trace" && r.tr == nil {
			t.Errorf("trace replay %s carries no trace", r.key)
		}
		if c, err := serve.Canonicalize(r.canon); err != nil || c.Key() != r.key {
			t.Errorf("grid entry %s does not round-trip: %v", r.key, err)
		}
	}
	for _, app := range coldApps {
		if apps[app] == 0 {
			t.Errorf("no %s in the interactive grid: %v", app, apps)
		}
	}
	if frac := float64(faulted) / float64(len(grid)); frac < 0.07 || frac > 0.13 {
		t.Errorf("faulted share %.3f, want about 0.10", frac)
	}
}

func TestClassify(t *testing.T) {
	const self, peer = "http://127.0.0.1:1", "http://127.0.0.1:2"
	cases := []struct {
		estimate     bool
		cache, owner string
		first        bool
		want         string
	}{
		{true, "miss", "", false, classEstimate},
		{false, "hit", self, false, classL1},
		{false, "l2", self, false, classL2},
		{false, "hit", peer, true, classProxied},
		{false, "l2", peer, true, classProxied},
		{false, "hit", peer, false, classL1}, // banked after the first hop
		{false, "l2", peer, false, classL2},
		{false, "hit", "", false, classL1}, // single node
		{false, "miss", self, false, classMiss},
		{false, "shared", self, false, classOther},
	}
	for _, c := range cases {
		if got := classify(c.estimate, c.cache, c.owner, self, c.first); got != c.want {
			t.Errorf("classify(%v, %q, %q, first=%v) = %q, want %q", c.estimate, c.cache, c.owner, c.first, got, c.want)
		}
	}
}

func TestRunQueryOmitsDefaults(t *testing.T) {
	got := runQuery(serve.Request{App: "fft", Procs: 4, Opt: true})
	if want := "app=fft&opt=true&procs=4"; got != want {
		t.Errorf("runQuery = %q, want %q", got, want)
	}
	got = runQuery(serve.Request{App: "scf30", Faults: "disk:degrade=2@t=0s..0.1s"})
	if want := "app=scf30&faults=disk%3Adegrade%3D2%40t%3D0s..0.1s"; got != want {
		t.Errorf("runQuery = %q, want %q", got, want)
	}
}

// TestBenchmarkJSONMatchesLayers keeps the repository's BENCHMARK.json in
// step with the per-layer metrics a traced run prints.
func TestBenchmarkJSONMatchesLayers(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, perLayer %d", len(doc.PerLayer), len(perLayer))
	}
	for i, l := range perLayer {
		if got := doc.PerLayer[i]; got.Name != l.name || got.Unit != l.unit || got.Better != l.better {
			t.Errorf("per_layer[%d] = %+v, want %+v", i, got, l)
		}
	}
}
