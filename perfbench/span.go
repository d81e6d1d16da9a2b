package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer's public API.
// Loops that time many cheap calls as one interval record n > 1; the
// per-call cost is then (end-start)/n.
type span struct {
	id, parent int64
	name, tag  string
	n          int
	start, end time.Duration // since the tracer's epoch
}

// tracer keeps spans in memory for the whole run; they are written out and
// reduced to per-layer metrics only after the measurement ends. A nil
// *tracer is the untraced mode: every method is a no-op.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newID reserves a span ID, so a parent can be named by its children
// before the parent itself is recorded.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// record stores a finished span under id (0 allocates one) and returns
// its ID.
func (t *tracer) record(id, parent int64, name, tag string, n int, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	if id == 0 {
		id = t.newID()
	}
	s := span{id: id, parent: parent, name: name, tag: tag, n: n,
		start: start.Sub(t.epoch), end: end.Sub(t.epoch)}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

// perCall returns the per-call duration in nanoseconds of every span
// named name whose tag matches (an empty tag matches all).
func (t *tracer) perCall(name, tag string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.name != name || (tag != "" && s.tag != tag) {
			continue
		}
		n := s.n
		if n < 1 {
			n = 1
		}
		out = append(out, float64(s.end-s.start)/float64(n))
	}
	return out
}

// writeTSV dumps every span, one per line: id, parent, name, tag, n,
// start and end in nanoseconds since the run began.
func (t *tracer) writeTSV(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tname\ttag\tn\tstart_ns\tend_ns")
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%s\t%d\t%d\t%d\n", s.id, s.parent, s.name, s.tag, s.n, s.start, s.end)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
