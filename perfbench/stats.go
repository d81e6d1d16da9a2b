package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest value with at least p% of the sample at or below it.
// It sorts a copy, so callers keep their order. An empty sample yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the nearest-rank 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// series collects per-operation values over one measurement window into
// consecutive buckets, by the time each operation started. Figures are
// reported as the median bucket rather than pooled over the window, which
// keeps a few seconds of interference from a neighbour on the host out of
// them.
type series struct {
	start   time.Time
	width   time.Duration
	buckets [][]float64
}

// newSeries covers the window [start, start+total) with whole buckets of
// width (at most total).
func newSeries(start time.Time, width, total time.Duration) *series {
	width = min(width, total)
	return &series{start: start, width: width, buckets: make([][]float64, total/width)}
}

// add records v for an operation that started at t. Operations outside the
// whole buckets are dropped.
func (s *series) add(t time.Time, v float64) {
	d := t.Sub(s.start)
	if b := int(d / s.width); d >= 0 && b < len(s.buckets) {
		s.buckets[b] = append(s.buckets[b], v)
	}
}

// merge appends o's buckets, which cover the same window, to s's.
func (s *series) merge(o *series) {
	for i, b := range o.buckets {
		s.buckets[i] = append(s.buckets[i], b...)
	}
}

// median applies stat to every non-empty bucket and returns the median of
// the results.
func (s *series) median(stat func([]float64) float64) float64 {
	var xs []float64
	for _, b := range s.buckets {
		if len(b) > 0 {
			xs = append(xs, stat(b))
		}
	}
	return median(xs)
}

// p returns the median bucket's p-th percentile.
func (s *series) p(p float64) float64 {
	return s.median(func(b []float64) float64 { return percentile(b, p) })
}

// rate returns the median bucket's operations per second.
func (s *series) rate() float64 {
	return s.median(func(b []float64) float64 { return float64(len(b)) / s.width.Seconds() })
}

// count returns the operations recorded.
func (s *series) count() int {
	n := 0
	for _, b := range s.buckets {
		n += len(b)
	}
	return n
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB. Where
// /proc is unavailable it falls back to the Go runtime's total reserved
// memory, which bounds the heap's share of it.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			fields := strings.Fields(line[len("VmHWM:"):])
			if len(fields) > 0 {
				if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
