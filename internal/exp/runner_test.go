package exp

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapPreservesInputOrder(t *testing.T) {
	jobs := make([]int, 64)
	for i := range jobs {
		jobs[i] = i
	}
	// Stagger completion so late jobs often finish before early ones.
	res, st, err := Map(jobs, 8, func(j int) (int, error) {
		time.Sleep(time.Duration(64-j) * 10 * time.Microsecond)
		return j * j, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r != i*i {
			t.Fatalf("res[%d] = %d, want %d", i, r, i*i)
		}
	}
	if st.Points != len(jobs) {
		t.Fatalf("Points = %d, want %d", st.Points, len(jobs))
	}
}

func TestMapReturnsLowestFailingIndex(t *testing.T) {
	jobs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	boom := errors.New("boom")
	_, _, err := Map(jobs, 4, func(j int) (int, error) {
		if j >= 3 {
			return 0, fmt.Errorf("job %d: %w", j, boom)
		}
		return j, nil
	})
	if err == nil {
		t.Fatal("Map did not propagate the error")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("error %v does not wrap the job error", err)
	}
}

func TestMapErrorStopsScheduling(t *testing.T) {
	var started atomic.Int64
	jobs := make([]int, 100)
	_, _, err := Map(jobs, 1, func(int) (int, error) {
		started.Add(1)
		return 0, errors.New("fail fast")
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if n := started.Load(); n != 1 {
		t.Fatalf("%d jobs started after a failure on 1 worker, want 1", n)
	}
}

func TestMapEmptyJobs(t *testing.T) {
	res, st, err := Map(nil, 4, func(int) (int, error) { return 0, nil })
	if err != nil || len(res) != 0 || st.Points != 0 {
		t.Fatalf("empty sweep: res=%v stats=%+v err=%v", res, st, err)
	}
}

// eventResult is a job result that reports simulation work.
type eventResult struct{ events uint64 }

func (r eventResult) EventCount() uint64 { return r.events }

func TestMapAggregatesEvents(t *testing.T) {
	jobs := []uint64{10, 20, 30}
	_, st, err := Map(jobs, 2, func(n uint64) (eventResult, error) {
		return eventResult{events: n}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Events != 60 {
		t.Fatalf("Events = %d, want 60", st.Events)
	}
}

func TestSetWorkersClampsAndRestores(t *testing.T) {
	prev := SetWorkers(0)
	if Workers() != 1 {
		t.Fatalf("SetWorkers(0) left Workers() = %d, want 1", Workers())
	}
	SetWorkers(prev)
	if Workers() != prev {
		t.Fatalf("Workers() = %d, want restored %d", Workers(), prev)
	}
}

func TestTakeStatsResets(t *testing.T) {
	TakeStats() // clear whatever earlier tests accumulated
	if _, _, err := Map([]int{1, 2}, 2, func(j int) (int, error) { return j, nil }); err != nil {
		t.Fatal(err)
	}
	st := TakeStats()
	if st.Points != 2 || st.Sweeps != 1 {
		t.Fatalf("TakeStats = %+v, want 2 points / 1 sweep", st)
	}
	if again := TakeStats(); again.Points != 0 {
		t.Fatalf("second TakeStats = %+v, want zero", again)
	}
}

// TestWorkerCountIndependentOutput is the tentpole's core guarantee: an
// artifact regenerated on 1 worker and on 8 is byte-identical.
func TestWorkerCountIndependentOutput(t *testing.T) {
	prev := Workers()
	defer SetWorkers(prev)
	for _, id := range []string{"fig1", "fig6", "table5"} {
		t.Run(id, func(t *testing.T) {
			e := ByID(id)
			if e == nil {
				t.Fatalf("experiment %q not registered", id)
			}
			render := func(workers int) string {
				SetWorkers(workers)
				var buf bytes.Buffer
				if err := e.Run(&buf, Quick); err != nil {
					t.Fatalf("j=%d: %v", workers, err)
				}
				return buf.String()
			}
			seq, par := render(1), render(8)
			if seq != par {
				t.Fatalf("output differs between j=1 and j=8:\n--- j=1 ---\n%s\n--- j=8 ---\n%s", seq, par)
			}
		})
	}
}
