package sim

import (
	"fmt"
	"math"
	"sort"
	"testing"
)

// fuzzDelays is the palette FuzzEventQueue draws delays from: zero
// (the ring), the smallest subnormal (a key one ulp above zero, and no
// move at all once the clock is past it), and spans from a nanosecond to
// a million seconds, so keys land in low and high buckets alike.
var fuzzDelays = [...]float64{0, math.SmallestNonzeroFloat64, 1e-9, 1.5e-3, 1, 1e6}

// fuzzMaxEvents bounds a program's size.
const fuzzMaxEvents = 512

// queueProg decodes a fuzz input into a program of callbacks. Each firing
// reads one byte from a cursor that wraps around the input: its low two
// bits give the number of children the callback schedules, and each child
// reads one more byte, whose top bit picks the current instant and whose
// other bits pick a delay from fuzzDelays. A root byte schedules 1–4 children
// at time 0 in the same way. Children get ids in scheduling order; the
// program stops growing after fuzzMaxEvents. The kernel and the reference
// run the same program, so their firing logs match iff they fire in the
// same order at the same times.
type queueProg struct {
	code []byte
	pc   int
	ids  int
}

func (pr *queueProg) next() byte {
	b := pr.code[pr.pc%len(pr.code)]
	pr.pc++
	return b
}

// children decodes the children of one firing (or of the root), calling
// sched with each one's id and timing: at selects the current instant,
// else d is the delay.
func (pr *queueProg) children(root bool, sched func(id int, at bool, d float64)) {
	if len(pr.code) == 0 || pr.ids >= fuzzMaxEvents {
		return
	}
	n := int(pr.next() & 3)
	if root {
		n++
	}
	for ; n > 0 && pr.ids < fuzzMaxEvents; n-- {
		b := pr.next()
		id := pr.ids
		pr.ids++
		sched(id, b&0x80 != 0, fuzzDelays[int(b&0x7f)%len(fuzzDelays)])
	}
}

// firing is one entry of a firing log.
type firing struct {
	now float64
	id  int
}

// runKernelProg runs the program on the engine and returns its firing log
// and event count.
func runKernelProg(code []byte) ([]firing, uint64, error) {
	e := NewEngine()
	pr := &queueProg{code: code}
	var log []firing
	var sched func(id int, at bool, d float64)
	sched = func(id int, at bool, d float64) {
		fire := func() {
			log = append(log, firing{e.Now(), id})
			pr.children(false, sched)
		}
		if at {
			d = 0
		}
		e.ScheduleStep(d, Step{Fn: fire})
	}
	pr.children(true, sched)
	err := e.Run()
	return log, e.Events(), err
}

// refEvent is an entry of the reference queue.
type refEvent struct {
	at  float64
	seq uint64
	id  int
}

// runReferenceProg runs the program on a reference queue that shares no
// code with the kernel's: one slice kept sorted by (at, seq), with no ring
// and no buckets.
func runReferenceProg(code []byte) []firing {
	var (
		q   []refEvent
		seq uint64
		now float64
		log []firing
	)
	pr := &queueProg{code: code}
	sched := func(id int, at bool, d float64) {
		t := now
		if !at {
			t = now + d
		}
		seq++
		// seq is the largest so far: insert after every event at or
		// before t.
		i := sort.Search(len(q), func(i int) bool { return q[i].at > t })
		q = append(q, refEvent{})
		copy(q[i+1:], q[i:])
		q[i] = refEvent{at: t, seq: seq, id: id}
	}
	pr.children(true, sched)
	for len(q) > 0 {
		ev := q[0]
		q = q[1:]
		now = ev.at
		log = append(log, firing{now, ev.id})
		pr.children(false, sched)
	}
	return log
}

// FuzzEventQueue checks the kernel's event order — the radix queue, the
// same-instant ring and their merge — against the reference queue on
// generated callback programs: the same firings, at the same times, in the
// same order, and an event count to match. Its seed corpus is under
// testdata/fuzz/FuzzEventQueue.
func FuzzEventQueue(f *testing.F) {
	f.Fuzz(func(t *testing.T, code []byte) {
		got, events, err := runKernelProg(code)
		if err != nil {
			t.Fatal(err)
		}
		want := runReferenceProg(code)
		if events != uint64(len(want)) {
			t.Errorf("Events() = %d, reference fired %d", events, len(want))
		}
		for i := 0; i < min(len(got), len(want)); i++ {
			if got[i] != want[i] {
				t.Fatalf("firing %d = id %d at %v, reference id %d at %v\nkernel:    %v\nreference: %v",
					i, got[i].id, got[i].now, want[i].id, want[i].now, around(got, i), around(want, i))
			}
		}
		if len(got) != len(want) {
			t.Fatalf("kernel fired %d events, reference %d", len(got), len(want))
		}
	})
}

// around formats the log entries near index i.
func around(log []firing, i int) string {
	return fmt.Sprint(log[max(0, i-3):min(len(log), i+4)])
}
