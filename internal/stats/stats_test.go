package stats

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	if c.Add(3) != 3 || c.Add(-1) != 2 {
		t.Fatal("Add did not return the running value")
	}
	c.Inc()
	if c.Value() != 3 {
		t.Fatalf("Value = %d, want 3", c.Value())
	}
	c.Set(10)
	if c.Value() != 10 {
		t.Fatalf("Set/Value = %d, want 10", c.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	cases := []struct {
		v      float64
		bucket int
	}{
		{0, 0}, {0.5, 0}, {1, 1}, {1.5, 1}, {2, 2}, {3, 2}, {4, 3},
		{1024, 11}, {-5, 0}, {math.MaxFloat64, histBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.bucket {
			t.Errorf("bucketOf(%g) = %d, want %d", c.v, got, c.bucket)
		}
		h.Observe(c.v)
	}
	if h.Count() != int64(len(cases)) {
		t.Fatalf("Count = %d, want %d", h.Count(), len(cases))
	}
	if h.Buckets()[11] != 1 {
		t.Fatalf("bucket 11 = %d, want 1", h.Buckets()[11])
	}
}

func TestHistogramMeanEmpty(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 {
		t.Fatal("empty histogram mean should be 0")
	}
	h.Observe(2)
	h.Observe(4)
	if h.Mean() != 3 {
		t.Fatalf("Mean = %g, want 3", h.Mean())
	}
}

func TestSeriesAggregates(t *testing.T) {
	var s Series
	// Level 2 during [0,10), level 4 during [10,20).
	s.Observe(0, 2)
	s.Observe(10, 4)
	if s.Max() != 4 {
		t.Fatalf("Max = %g, want 4", s.Max())
	}
	if got := s.Mean(20); got != 3 {
		t.Fatalf("Mean(20) = %g, want 3", got)
	}
	if (&Series{}).Mean(5) != 0 {
		t.Fatal("empty series mean should be 0")
	}
}

// TestSeriesBoundedAndExact drives a series far past its sample budget and
// checks that memory stays bounded while the aggregates remain exact.
func TestSeriesBoundedAndExact(t *testing.T) {
	var s Series
	n := seriesCap * 20
	var integral float64
	for i := 0; i < n; i++ {
		// Level i during [i, i+1).
		s.Observe(float64(i), float64(i))
		if i > 0 {
			integral += float64(i - 1)
		}
	}
	if len(s.Samples()) > seriesCap {
		t.Fatalf("retained %d samples, cap %d", len(s.Samples()), seriesCap)
	}
	if s.Max() != float64(n-1) {
		t.Fatalf("Max = %g, want %d", s.Max(), n-1)
	}
	end := float64(n - 1)
	wantMean := integral / end
	if got := s.Mean(end); math.Abs(got-wantMean) > 1e-9 {
		t.Fatalf("Mean(%g) = %g, want %g", end, got, wantMean)
	}
	// Samples stay time-ordered after compactions.
	prev := math.Inf(-1)
	for _, smp := range s.Samples() {
		if smp.T < prev {
			t.Fatalf("samples out of order: %g after %g", smp.T, prev)
		}
		prev = smp.T
	}
}

// TestSeriesDeterministicRetention checks that the same observation stream
// retains the same samples — the property the golden metrics output
// depends on.
func TestSeriesDeterministicRetention(t *testing.T) {
	build := func() *Series {
		var s Series
		for i := 0; i < seriesCap*7; i++ {
			s.Observe(float64(i)*0.25, float64(i%17))
		}
		return &s
	}
	a, b := build(), build()
	as, bs := a.Samples(), b.Samples()
	if len(as) != len(bs) {
		t.Fatalf("retention differs: %d vs %d samples", len(as), len(bs))
	}
	for i := range as {
		if as[i] != bs[i] {
			t.Fatalf("sample %d differs: %+v vs %+v", i, as[i], bs[i])
		}
	}
}

func TestRegistryHandlesAreShared(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("Counter handles not shared by name")
	}
	if r.Series("q") != r.Series("q") {
		t.Fatal("Series handles not shared by name")
	}
	if r.Histogram("h", "us") != r.Histogram("h", "us") {
		t.Fatal("Histogram handles not shared by name")
	}
	if r.Float("f", AggSum) != r.Float("f", AggSum) {
		t.Fatal("Float handles not shared by name")
	}
}

func TestRegistryTypeClashPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("cross-type metric name did not panic")
		}
	}()
	r := NewRegistry()
	r.Counter("x")
	r.Histogram("x", "B")
}

func TestSnapshotSortedAndRendered(t *testing.T) {
	r := NewRegistry()
	r.Counter("z.second").Add(2)
	r.Counter("a.first").Add(1_234_567)
	r.Float("u.max", AggMax).Set(0.75)
	r.Histogram("req.bytes", "B").Observe(4096)
	sr := r.Series("depth")
	sr.Observe(0, 1)
	sr.Observe(5, 3)
	snap := r.Snapshot(10)

	if snap.Counters[0].Name != "a.first" || snap.Counters[1].Name != "z.second" {
		t.Fatalf("counters not sorted: %+v", snap.Counters)
	}
	tbl := snap.Table()
	for _, want := range []string{"a.first", "1,234,567", "u.max", "depth", "req.bytes", "4096"} {
		if !strings.Contains(tbl, want) {
			t.Fatalf("Table missing %q:\n%s", want, tbl)
		}
	}
	// Series mean: level 1 for [0,5), 3 for [5,10) over endT=10.
	if got := snap.Series[0].Mean(); got != 2 {
		t.Fatalf("series mean = %g, want 2", got)
	}

	raw, err := snap.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("JSON round-trip: %v", err)
	}
	if len(back.Counters) != 2 || back.Counters[0].Value != 1234567 {
		t.Fatalf("JSON round-trip lost counters: %+v", back.Counters)
	}
}

func TestSnapshotMerge(t *testing.T) {
	mk := func(seeks int64, util float64, depthMax float64) *Snapshot {
		r := NewRegistry()
		r.Counter("disk.seeks").Add(seeks)
		r.Float("ionode.util_max", AggMax).Set(util)
		r.Float("sim.time_sec", AggSum).Set(10)
		r.Histogram("pfs.req_bytes", "B").Observe(1024)
		s := r.Series("ionode.qdepth")
		s.Observe(0, depthMax)
		return r.Snapshot(10)
	}
	a := mk(5, 0.5, 2)
	b := mk(7, 0.9, 8)
	a.Merge(b)
	if a.Runs != 2 {
		t.Fatalf("Runs = %d, want 2", a.Runs)
	}
	if a.Counters[0].Value != 12 {
		t.Fatalf("merged seeks = %d, want 12", a.Counters[0].Value)
	}
	var utilMax, simSum float64
	for _, f := range a.Floats {
		switch f.Name {
		case "ionode.util_max":
			utilMax = f.Value
		case "sim.time_sec":
			simSum = f.Value
		}
	}
	if utilMax != 0.9 {
		t.Fatalf("AggMax float merged to %g, want 0.9", utilMax)
	}
	if simSum != 20 {
		t.Fatalf("AggSum float merged to %g, want 20", simSum)
	}
	if a.Hists[0].Count != 2 {
		t.Fatalf("merged hist count = %d, want 2", a.Hists[0].Count)
	}
	if a.Series[0].Max != 8 || a.Series[0].Samples != nil {
		t.Fatalf("merged series = %+v, want max 8 and no samples", a.Series[0])
	}
	// Disjoint names union.
	r := NewRegistry()
	r.Counter("net.msgs").Add(3)
	a.Merge(r.Snapshot(0))
	names := make([]string, len(a.Counters))
	for i, c := range a.Counters {
		names[i] = c.Name
	}
	if len(names) != 2 || names[0] != "disk.seeks" || names[1] != "net.msgs" {
		t.Fatalf("merged counter names = %v", names)
	}
	a.Merge(nil) // must be a no-op
	if len(a.Counters) != 2 {
		t.Fatal("Merge(nil) changed the snapshot")
	}
}

// TestSnapshotSetFloat: a float folded into a finished snapshot lands in
// name order, exactly where a registry gauge of that name would have, and
// setting an existing name overwrites it.
func TestSnapshotSetFloat(t *testing.T) {
	r := NewRegistry()
	r.Float("b", AggSum).Set(2)
	r.Float("d", AggSum).Set(4)
	snap := r.Snapshot(0)
	snap.SetFloat("c", 3, AggMax)
	snap.SetFloat("a", 1, AggSum)
	snap.SetFloat("e", 5, AggSum)
	snap.SetFloat("d", 40, AggMax)

	want := NewRegistry()
	want.Float("a", AggSum).Set(1)
	want.Float("b", AggSum).Set(2)
	want.Float("c", AggMax).Set(3)
	want.Float("d", AggMax).Set(40)
	want.Float("e", AggSum).Set(5)
	if got, exp := snap.Table(), want.Snapshot(0).Table(); got != exp {
		t.Fatalf("table after SetFloat:\n%s\nwant:\n%s", got, exp)
	}
	for i, f := range snap.Floats {
		if w := want.Snapshot(0).Floats[i]; f != w {
			t.Fatalf("float %d = %+v, want %+v", i, f, w)
		}
	}
}

func TestFmtCount(t *testing.T) {
	cases := map[int64]string{
		0: "0", 7: "7", 999: "999", 1000: "1,000",
		1234567: "1,234,567", -1234: "-1,234",
	}
	for v, want := range cases {
		if got := fmtCount(v); got != want {
			t.Errorf("fmtCount(%d) = %q, want %q", v, got, want)
		}
	}
}

// TestObserveDoesNotAllocate pins the zero-allocation hot path: counter
// adds, histogram observes and series observes after construction.
func TestObserveDoesNotAllocate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	h := r.Histogram("h", "us")
	s := r.Series("s")
	// Fill the series to capacity first so compaction is exercised too.
	for i := 0; i < seriesCap*3; i++ {
		s.Observe(float64(i), float64(i%5))
	}
	next := float64(seriesCap * 3)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		h.Observe(17)
		s.Observe(next, 2)
		next++
	})
	if allocs != 0 {
		t.Fatalf("hot path allocates: %.1f allocs/op", allocs)
	}
}
