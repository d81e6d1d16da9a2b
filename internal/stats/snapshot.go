package stats

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// CounterValue is one counter in a Snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// FloatValue is one float gauge in a Snapshot.
type FloatValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Agg   Agg     `json:"-"`
}

// HistValue is one histogram in a Snapshot. Buckets is the full fixed
// bucket array; bucket i counts observations in [2^(i-1), 2^i) units.
type HistValue struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Count   int64   `json:"count"`
	Sum     float64 `json:"sum"`
	Buckets []int64 `json:"buckets"`
}

// Mean returns the mean observation.
func (h HistValue) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// SeriesValue is one time series in a Snapshot. Integral and Duration make
// the time-weighted mean exact under merging; Samples are the retained
// points of a single run and are dropped when snapshots merge (points from
// different runs share no time axis).
type SeriesValue struct {
	Name     string   `json:"name"`
	Max      float64  `json:"max"`
	Integral float64  `json:"integral"`
	Duration float64  `json:"duration_sec"`
	Samples  []Sample `json:"samples,omitempty"`
}

// Mean returns the time-weighted mean level.
func (s SeriesValue) Mean() float64 {
	if s.Duration <= 0 {
		return 0
	}
	return s.Integral / s.Duration
}

// Snapshot is the end-of-run view of a registry: every metric, sorted by
// name, plus the run's real (wall-clock) time. WallSec is the only
// non-deterministic field and is omitted from Table so that rendered
// snapshots of deterministic runs are byte-identical.
type Snapshot struct {
	// Runs is how many per-run snapshots are folded in (1 for a single
	// run; a sweep's aggregate counts its points).
	Runs     int            `json:"runs"`
	WallSec  float64        `json:"wall_sec"`
	Counters []CounterValue `json:"counters,omitempty"`
	Floats   []FloatValue   `json:"floats,omitempty"`
	Hists    []HistValue    `json:"histograms,omitempty"`
	Series   []SeriesValue  `json:"series,omitempty"`
}

// Snapshot captures the registry's current state. endT is the run's final
// simulated time, the upper bound of every series' mean window.
func (r *Registry) Snapshot(endT float64) *Snapshot {
	snap := &Snapshot{Runs: 1}
	for _, name := range sortedKeys(r.counters) {
		snap.Counters = append(snap.Counters, CounterValue{Name: name, Value: r.counters[name].v})
	}
	for _, name := range sortedKeys(r.floats) {
		f := r.floats[name]
		snap.Floats = append(snap.Floats, FloatValue{Name: name, Value: f.v, Agg: f.agg})
	}
	for _, name := range sortedKeys(r.hists) {
		h := r.hists[name]
		snap.Hists = append(snap.Hists, HistValue{
			Name: name, Unit: h.unit, Count: h.count, Sum: h.sum, Buckets: h.Buckets(),
		})
	}
	for _, name := range sortedKeys(r.series) {
		s := r.series[name]
		sv := SeriesValue{Name: name, Max: s.max}
		if s.have {
			sv.Duration = endT - s.startT
			sv.Integral = s.integral + s.last.V*(endT-s.last.T)
			sv.Samples = append([]Sample(nil), s.samples...)
		}
		snap.Series = append(snap.Series, sv)
	}
	return snap
}

// SetFloat sets the float gauge name to v, inserting it in name order when
// the snapshot lacks it. It folds values known only once a run is over —
// its span, its I/O-partition balance — into that run's snapshot without
// touching the registry the run fed.
func (s *Snapshot) SetFloat(name string, v float64, agg Agg) {
	i := sort.Search(len(s.Floats), func(i int) bool { return s.Floats[i].Name >= name })
	if i < len(s.Floats) && s.Floats[i].Name == name {
		s.Floats[i].Value, s.Floats[i].Agg = v, agg
		return
	}
	s.Floats = slices.Insert(s.Floats, i, FloatValue{Name: name, Value: v, Agg: agg})
}

// mergeSorted merges two name-sorted slices, combining entries with equal
// names and keeping the result sorted.
func mergeSorted[T any](a, b []T, name func(T) string, combine func(*T, T)) []T {
	out := make([]T, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case name(a[i]) < name(b[j]):
			out = append(out, a[i])
			i++
		case name(a[i]) > name(b[j]):
			out = append(out, b[j])
			j++
		default:
			m := a[i]
			combine(&m, b[j])
			out = append(out, m)
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// Merge folds other into s: counters, histogram buckets, float gauges (by
// their aggregation mode) and series aggregates combine per name; retained
// series samples are dropped because merged runs share no time axis. Sweep
// aggregation must merge points in a deterministic order (the runner uses
// input order) so that floating-point sums are reproducible.
func (s *Snapshot) Merge(other *Snapshot) {
	if other == nil {
		return
	}
	s.Runs += other.Runs
	s.WallSec += other.WallSec
	s.Counters = mergeSorted(s.Counters, other.Counters,
		func(c CounterValue) string { return c.Name },
		func(dst *CounterValue, src CounterValue) { dst.Value += src.Value })
	s.Floats = mergeSorted(s.Floats, other.Floats,
		func(f FloatValue) string { return f.Name },
		func(dst *FloatValue, src FloatValue) {
			if dst.Agg == AggMax {
				if src.Value > dst.Value {
					dst.Value = src.Value
				}
			} else {
				dst.Value += src.Value
			}
		})
	s.Hists = mergeSorted(s.Hists, other.Hists,
		func(h HistValue) string { return h.Name },
		func(dst *HistValue, src HistValue) {
			dst.Count += src.Count
			dst.Sum += src.Sum
			buckets := make([]int64, len(dst.Buckets))
			copy(buckets, dst.Buckets)
			for i := range src.Buckets {
				buckets[i] += src.Buckets[i]
			}
			dst.Buckets = buckets
		})
	s.Series = mergeSorted(s.Series, other.Series,
		func(v SeriesValue) string { return v.Name },
		func(dst *SeriesValue, src SeriesValue) {
			if src.Max > dst.Max {
				dst.Max = src.Max
			}
			dst.Integral += src.Integral
			dst.Duration += src.Duration
			dst.Samples = nil
		})
}

// fmtCount renders an integer with thousands separators.
func fmtCount(v int64) string {
	s := fmt.Sprintf("%d", v)
	neg := strings.HasPrefix(s, "-")
	if neg {
		s = s[1:]
	}
	var parts []string
	for len(s) > 3 {
		parts = append([]string{s[len(s)-3:]}, parts...)
		s = s[:len(s)-3]
	}
	parts = append([]string{s}, parts...)
	out := strings.Join(parts, ",")
	if neg {
		out = "-" + out
	}
	return out
}

// histBars renders the non-empty buckets of a histogram as an ASCII bar
// chart, in the style of trace.HistogramString.
func histBars(h HistValue) string {
	var max int64
	lo, hi := -1, -1
	for i, c := range h.Buckets {
		if c > 0 {
			if lo < 0 {
				lo = i
			}
			hi = i
			if c > max {
				max = c
			}
		}
	}
	if lo < 0 {
		return ""
	}
	var b strings.Builder
	for i := lo; i <= hi; i++ {
		barLen := 0
		if max > 0 {
			barLen = int(h.Buckets[i] * 40 / max)
		}
		low := int64(0)
		if i > 0 {
			low = int64(1) << (i - 1)
		}
		fmt.Fprintf(&b, "    %12d-%-12d %-2s %12d %s\n",
			low, int64(1)<<i, h.Unit, h.Buckets[i], strings.Repeat("#", barLen))
	}
	return b.String()
}

// Table renders the snapshot as the -metrics breakdown: counters, gauges,
// series summaries, then histograms with bucket bars. Output depends only
// on simulated quantities (WallSec is omitted), so it is stable across
// hosts and worker counts.
func (s *Snapshot) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "metrics over %d run(s):\n", s.Runs)
	if len(s.Counters) > 0 {
		fmt.Fprintf(&b, "  %-28s %16s\n", "counter", "value")
		for _, c := range s.Counters {
			fmt.Fprintf(&b, "  %-28s %16s\n", c.Name, fmtCount(c.Value))
		}
	}
	if len(s.Floats) > 0 {
		fmt.Fprintf(&b, "  %-28s %16s\n", "gauge", "value")
		for _, f := range s.Floats {
			fmt.Fprintf(&b, "  %-28s %16.3f\n", f.Name, f.Value)
		}
	}
	if len(s.Series) > 0 {
		fmt.Fprintf(&b, "  %-28s %12s %12s\n", "series (over sim time)", "max", "mean")
		for _, v := range s.Series {
			fmt.Fprintf(&b, "  %-28s %12.2f %12.3f\n", v.Name, v.Max, v.Mean())
		}
	}
	for _, h := range s.Hists {
		fmt.Fprintf(&b, "  %s (%s): %s observation(s), mean %.2f %s\n",
			h.Name, h.Unit, fmtCount(h.Count), h.Mean(), h.Unit)
		b.WriteString(histBars(h))
	}
	return b.String()
}

// JSON renders the snapshot as indented machine-readable JSON. Unlike
// Table it includes wall_sec, which is not deterministic across hosts.
func (s *Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}
