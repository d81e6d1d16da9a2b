// Package stats is the cross-layer metrics substrate of the simulator: a
// per-run registry of counters, float gauges, fixed-bucket histograms and
// bounded time series that every simulation layer feeds — the engine, the
// disks, the I/O nodes, the interconnect, the parallel file system and the
// I/O libraries.
//
// The design constraint is the simulation hot path: a metric update is a
// handful of integer/float operations on a handle the layer obtained at
// construction time, and never allocates. Registry lookups (map access,
// name formatting) happen only when a component is built; Snapshot
// assembly, rendering and JSON encoding happen only after a run finishes.
//
// Everything a metric stores is derived from simulated time and simulated
// work, so for a fixed configuration the values — and therefore a rendered
// Snapshot — are byte-identical from run to run regardless of host load or
// worker count. The one exception, real (wall-clock) time, is deliberately
// kept out of the registry and carried on the Snapshot as a separate field
// that the deterministic renderings omit.
package stats

import (
	"fmt"
	"math/bits"
	"sort"
)

// Agg is how a Float gauge combines across merged snapshots.
type Agg int

const (
	// AggSum adds values: totals (busy seconds, simulated seconds).
	AggSum Agg = iota
	// AggMax keeps the largest value: worst-case gauges (peak utilization).
	AggMax
)

// Counter is a monotonically adjusted integer metric. Not safe for
// concurrent use: within one simulated run exactly one process executes at
// a time, which is the registry's concurrency model.
type Counter struct {
	v int64
}

// Add adds d and returns the new value (so callers tracking a level, such
// as an in-flight count, can read it without a second call).
func (c *Counter) Add(d int64) int64 {
	c.v += d
	return c.v
}

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Set overwrites the value — for end-of-run mirrors of externally counted
// quantities (the engine's event count).
func (c *Counter) Set(v int64) { c.v = v }

// Value returns the current value.
func (c *Counter) Value() int64 { return c.v }

// Float is a float-valued gauge with an explicit cross-run aggregation
// mode.
type Float struct {
	v   float64
	agg Agg
}

// Add adds d.
func (f *Float) Add(d float64) { f.v += d }

// Set overwrites the value.
func (f *Float) Set(v float64) { f.v = v }

// Value returns the current value.
func (f *Float) Value() float64 { return f.v }

// histBuckets is the fixed bucket count of every histogram: bucket i holds
// observations v (in the histogram's unit) with 2^(i-1) <= v < 2^i, and
// bucket 0 holds v < 1. 48 log2 buckets span anything the simulator
// produces, from sub-microsecond latencies to multi-terabyte volumes.
const histBuckets = 48

// Histogram is a fixed-bucket log2 histogram. Observations carry a unit
// chosen at registration ("us" for latencies, "B" for sizes); the unit is
// only documentation and rendering, the bucket math is unit-agnostic.
type Histogram struct {
	unit    string
	count   int64
	sum     float64
	buckets [histBuckets]int64
}

// bucketOf maps a value to its log2 bucket.
func bucketOf(v float64) int {
	if v < 0 {
		v = 0
	}
	b := bits.Len64(uint64(v))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// Observe adds one observation.
func (h *Histogram) Observe(v float64) {
	h.count++
	h.sum += v
	h.buckets[bucketOf(v)]++
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean returns the mean observation, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Unit returns the histogram's unit label.
func (h *Histogram) Unit() string { return h.unit }

// Buckets returns a copy of the bucket counts.
func (h *Histogram) Buckets() []int64 {
	out := make([]int64, histBuckets)
	copy(out, h.buckets[:])
	return out
}

// Merge folds other into h. Merging is commutative and associative on the
// counts; the float sum is added in call order, so deterministic merging
// requires a deterministic merge order (the sweep runner merges in input
// order for exactly this reason).
func (h *Histogram) Merge(other *Histogram) {
	h.count += other.count
	h.sum += other.sum
	for i := range h.buckets {
		h.buckets[i] += other.buckets[i]
	}
}

// Sample is one (simulated time, value) point of a Series.
type Sample struct {
	T float64 `json:"t"`
	V float64 `json:"v"`
}

// seriesCap is the fixed sample budget of a Series.
const seriesCap = 512

// Series is a bounded time series of a level (queue depth, dirty bytes)
// over simulated time. It keeps exact aggregates — maximum and the time
// integral of the level, from which the time-weighted mean follows — plus
// up to seriesCap retained samples for plotting. When the sample buffer
// fills, resolution is halved: every other retained sample is dropped and
// the minimum spacing between kept samples doubles. The compaction depends
// only on the observed (t, v) stream, so a given run always retains the
// same samples. After construction a Series never allocates.
type Series struct {
	samples  []Sample // retained, time-ordered
	interval float64  // minimum spacing between retained samples
	last     Sample   // most recent observation (always tracked exactly)
	have     bool
	startT   float64
	max      float64
	integral float64 // integral of v dt since startT
}

// Observe records that the level is v as of simulated time t. Calls must
// have non-decreasing t (simulated time is monotonic within a run).
func (s *Series) Observe(t, v float64) {
	if !s.have {
		s.have = true
		s.startT = t
		s.last = Sample{T: t, V: v}
		s.max = v
		s.samples = append(s.samples, s.last)
		return
	}
	s.integral += s.last.V * (t - s.last.T)
	s.last = Sample{T: t, V: v}
	if v > s.max {
		s.max = v
	}
	if t-s.samples[len(s.samples)-1].T < s.interval {
		return
	}
	if len(s.samples) == cap(s.samples) {
		s.compact(t)
		if t-s.samples[len(s.samples)-1].T < s.interval {
			return
		}
	}
	s.samples = append(s.samples, s.last)
}

// compact halves the retained resolution in place.
func (s *Series) compact(now float64) {
	if s.interval == 0 {
		s.interval = (now - s.startT) / float64(cap(s.samples))
	}
	s.interval *= 2
	kept := s.samples[:1]
	for _, smp := range s.samples[1:] {
		if smp.T-kept[len(kept)-1].T >= s.interval {
			kept = append(kept, smp)
		}
	}
	s.samples = kept
}

// Max returns the largest observed value.
func (s *Series) Max() float64 { return s.max }

// Mean returns the time-weighted mean level up to endT (normally the
// engine's final time). With no observations, or a zero-length span, it
// returns 0.
func (s *Series) Mean(endT float64) float64 {
	if !s.have || endT <= s.startT {
		return 0
	}
	integral := s.integral + s.last.V*(endT-s.last.T)
	return integral / (endT - s.startT)
}

// Samples returns the retained samples.
func (s *Series) Samples() []Sample { return s.samples }

// Registry holds one run's metrics by name. Handles are obtained (and
// created on first use) by the typed accessors; asking for an existing
// name with a different type panics, as that is a wiring bug.
type Registry struct {
	counters map[string]*Counter
	floats   map[string]*Float
	hists    map[string]*Histogram
	series   map[string]*Series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		floats:   make(map[string]*Float),
		hists:    make(map[string]*Histogram),
		series:   make(map[string]*Series),
	}
}

// checkFresh panics if name already exists under a different metric type.
func (r *Registry) checkFresh(name, want string) {
	kinds := []struct {
		kind string
		ok   bool
	}{
		{"counter", r.counters[name] != nil},
		{"float", r.floats[name] != nil},
		{"histogram", r.hists[name] != nil},
		{"series", r.series[name] != nil},
	}
	for _, k := range kinds {
		if k.ok && k.kind != want {
			panic(fmt.Sprintf("stats: metric %q is a %s, requested as %s", name, k.kind, want))
		}
	}
}

// Counter returns the counter with the given name, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	if c := r.counters[name]; c != nil {
		return c
	}
	r.checkFresh(name, "counter")
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Float returns the float gauge with the given name, creating it with the
// given aggregation mode if needed.
func (r *Registry) Float(name string, agg Agg) *Float {
	if f := r.floats[name]; f != nil {
		return f
	}
	r.checkFresh(name, "float")
	f := &Float{agg: agg}
	r.floats[name] = f
	return f
}

// Histogram returns the histogram with the given name, creating it with
// the given unit label if needed.
func (r *Registry) Histogram(name, unit string) *Histogram {
	if h := r.hists[name]; h != nil {
		return h
	}
	r.checkFresh(name, "histogram")
	h := &Histogram{unit: unit}
	r.hists[name] = h
	return h
}

// Series returns the time series with the given name, creating it if
// needed. Components sharing a name share the series, which is how
// system-wide levels (total I/O-node queue depth) are built from per-node
// updates.
func (r *Registry) Series(name string) *Series {
	if s := r.series[name]; s != nil {
		return s
	}
	r.checkFresh(name, "series")
	s := &Series{samples: make([]Sample, 0, seriesCap)}
	r.series[name] = s
	return s
}

// sortedKeys returns the sorted key set of a metric map.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
