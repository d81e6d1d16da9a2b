package pio

import (
	"sort"
	"testing"
	"testing/quick"

	"pario/internal/ooc"
	"pario/internal/pfs"
	"pario/internal/sim"
	"pario/internal/trace"
)

// stridedRuns builds n pieces of pieceLen bytes separated by gap bytes.
func stridedRuns(n int, pieceLen, gap int64) []ooc.Run {
	runs := make([]ooc.Run, n)
	for i := range runs {
		runs[i] = ooc.Run{Off: int64(i) * (pieceLen + gap), Len: pieceLen}
	}
	return runs
}

func sieveRig(t *testing.T) (*sim.Engine, *Handle, *trace.Recorder) {
	t.Helper()
	e, fs := testFS(t, 2)
	f, err := fs.Create("x", pfs.Layout{StripeUnit: 65536, StripeFactor: 2, FirstNode: 0}, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	c, err := NewClient(fs, 0, passionLike(), rec)
	if err != nil {
		t.Fatal(err)
	}
	return e, &Handle{c: c, f: f}, rec
}

func TestSieveWindowsGrouping(t *testing.T) {
	runs := stridedRuns(10, 100, 100) // extent 1900
	w := sieveWindows(runs, 1000)
	if len(w) != 2 {
		t.Fatalf("windows = %d, want 2", len(w))
	}
	// 5 pieces fit a 1000-byte extent: [0,900] covers 5 pieces (last ends 900).
	if len(w[0]) != 5 || len(w[1]) != 5 {
		t.Fatalf("window sizes = %d,%d, want 5,5", len(w[0]), len(w[1]))
	}
}

func TestSieveWindowsSingleHugeRun(t *testing.T) {
	runs := []ooc.Run{{Off: 0, Len: 5000}}
	w := sieveWindows(runs, 1000)
	if len(w) != 1 || len(w[0]) != 1 {
		t.Fatalf("huge run not its own window: %v", w)
	}
}

// Property: windows partition the runs in order and each window extent
// (except oversize single runs) fits the buffer.
func TestSieveWindowsProperty(t *testing.T) {
	f := func(raw []uint16, bufRaw uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 40 {
			raw = raw[:40]
		}
		buf := int64(bufRaw%5000) + 100
		// Build sorted non-overlapping runs.
		offs := make([]int64, len(raw))
		var pos int64
		for i, v := range raw {
			pos += int64(v%500) + 1
			offs[i] = pos
			pos += int64(v%200) + 1
		}
		sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
		var runs []ooc.Run
		for i, o := range offs {
			l := int64(raw[i]%200) + 1
			if i+1 < len(offs) && o+l > offs[i+1] {
				l = offs[i+1] - o
			}
			if l <= 0 {
				continue
			}
			runs = append(runs, ooc.Run{Off: o, Len: l})
		}
		ws := sieveWindows(runs, buf)
		count := 0
		for _, w := range ws {
			count += len(w)
			lo, hi := windowExtent(w)
			if len(w) > 1 && hi-lo > buf {
				return false
			}
			_ = lo
		}
		return count == len(runs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReadSievedReducesRequests(t *testing.T) {
	e, h, rec := sieveRig(t)
	runs := stridedRuns(64, 512, 512)
	var st SieveStats
	e.Spawn("u", func(p *sim.Proc) {
		st = h.ReadSieved(p, runs, 64<<10)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if st.Requests >= 64 {
		t.Fatalf("sieved requests = %d, want << 64", st.Requests)
	}
	if rec.Get(trace.Read).Count != st.Requests {
		t.Fatalf("recorder reads %d != stats %d", rec.Get(trace.Read).Count, st.Requests)
	}
	if st.Useful != 64*512 {
		t.Fatalf("useful = %d, want %d", st.Useful, 64*512)
	}
	if st.Transferred <= st.Useful {
		t.Fatal("sieving transferred no extra bytes over a gapped pattern")
	}
	if wf := st.WasteFraction(); wf < 0.4 || wf > 0.6 {
		t.Fatalf("waste fraction = %g, want ~0.5 for equal piece/gap", wf)
	}
}

func TestReadSievedFasterThanPiecewise(t *testing.T) {
	runs := stridedRuns(128, 512, 512)
	timeOf := func(sieve bool) float64 {
		e, h, _ := sieveRig(t)
		var took float64
		e.Spawn("u", func(p *sim.Proc) {
			start := p.Now()
			if sieve {
				h.ReadSieved(p, runs, 128<<10)
			} else {
				for _, r := range runs {
					h.ReadAt(p, r.Off, r.Len)
				}
			}
			took = p.Now() - start
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return took
	}
	piece, sieved := timeOf(false), timeOf(true)
	if sieved*5 > piece {
		t.Fatalf("sieved %g not well below piecewise %g", sieved, piece)
	}
}

func TestSieveBadBufferPanics(t *testing.T) {
	_, h, _ := sieveRig(t)
	defer func() {
		if recover() == nil {
			t.Fatal("zero buffer did not panic")
		}
	}()
	h.ReadSieved(nil, nil, 0)
}

func TestWasteFractionZeroOnEmpty(t *testing.T) {
	var st SieveStats
	if st.WasteFraction() != 0 {
		t.Fatal("empty stats waste != 0")
	}
}
