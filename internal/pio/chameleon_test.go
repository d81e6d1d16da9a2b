package pio

import (
	"testing"

	"pario/internal/mp"
	"pario/internal/ooc"
	"pario/internal/pfs"
	"pario/internal/sim"
	"pario/internal/trace"
)

func funnelRig(t *testing.T, procs int, chunk int64) (*sim.Engine, []*trace.Recorder, *Funnel) {
	t.Helper()
	e, fs := testFS(t, 4)
	f, err := fs.Create("shared", pfs.Layout{StripeUnit: 65536, StripeFactor: 4, FirstNode: 0}, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	comm, err := mp.New(e, fs.Network(), procs)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]*trace.Recorder, procs)
	for r := range recs {
		recs[r] = trace.NewRecorder()
	}
	c0, err := NewClient(fs, comm.NodeOf(0), fortranLike(), recs[0])
	if err != nil {
		t.Fatal(err)
	}
	fn, err := NewFunnel(comm, &Handle{c: c0, f: f}, chunk)
	if err != nil {
		t.Fatal(err)
	}
	fn.SetRecorders(recs)
	return e, recs, fn
}

func TestFunnelWritesEverything(t *testing.T) {
	const procs = 4
	e, recs, fn := funnelRig(t, procs, 8192)
	for r := 0; r < procs; r++ {
		r := r
		e.Spawn("rank", func(p *sim.Proc) {
			fn.Write(p, r, []ooc.Run{{Off: int64(r) * 65536, Len: 65536}})
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// All file writes happen on rank 0.
	w0 := recs[0].Get(trace.Write)
	if w0.Bytes != 4*65536 {
		t.Fatalf("rank-0 wrote %d bytes, want %d", w0.Bytes, 4*65536)
	}
	// 65536/8192 = 8 chunks per rank, 4 ranks.
	if w0.Count != 32 {
		t.Fatalf("rank-0 writes = %d, want 32 small chunks", w0.Count)
	}
}

func TestFunnelChargesSendersAsIO(t *testing.T) {
	const procs = 3
	e, recs, fn := funnelRig(t, procs, 8192)
	for r := 0; r < procs; r++ {
		r := r
		e.Spawn("rank", func(p *sim.Proc) {
			fn.Write(p, r, []ooc.Run{{Off: int64(r) * 65536, Len: 65536}})
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for r := 1; r < procs; r++ {
		w := recs[r].Get(trace.Write)
		if w.Count != 8 {
			t.Fatalf("rank %d funnel stats = %+v, want 8 chunk calls", r, w)
		}
		if w.Bytes != 0 {
			t.Fatalf("rank %d recorded %d bytes; volume belongs to rank 0", r, w.Bytes)
		}
		if w.Sec <= 0 {
			t.Fatalf("rank %d charged no time for funnel sends", r)
		}
	}
}

func TestFunnelSerializesAtRankZero(t *testing.T) {
	// Doubling the ranks with the same per-rank volume should roughly
	// double the funnel completion time: the single writer is the
	// bottleneck.
	run := func(procs int) float64 {
		e, _, fn := funnelRig(t, procs, 8192)
		var wall float64
		for r := 0; r < procs; r++ {
			r := r
			e.Spawn("rank", func(p *sim.Proc) {
				fn.Write(p, r, []ooc.Run{{Off: int64(r) * 262144, Len: 262144}})
				if p.Now() > wall {
					wall = p.Now()
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return wall
	}
	t2, t4 := run(2), run(4)
	if t4 < 1.6*t2 {
		t.Fatalf("funnel wall: 4 ranks %g vs 2 ranks %g — expected ~2x", t4, t2)
	}
}

func TestFunnelSlowerThanCollective(t *testing.T) {
	// The AST comparison (§4.6): two-phase collective I/O must beat the
	// funnel for the same data.
	const procs = 4
	runs := func(r int) []ooc.Run {
		return []ooc.Run{{Off: int64(r) * 262144, Len: 262144}}
	}
	funnelWall := func() float64 {
		e, _, fn := funnelRig(t, procs, 8192)
		var wall float64
		for r := 0; r < procs; r++ {
			r := r
			e.Spawn("rank", func(p *sim.Proc) {
				fn.Write(p, r, runs(r))
				if p.Now() > wall {
					wall = p.Now()
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return wall
	}
	collWall := func() float64 {
		e, _, _, _, tc := collectiveRig(t, procs, procs*262144)
		var wall float64
		for r := 0; r < procs; r++ {
			r := r
			e.Spawn("rank", func(p *sim.Proc) {
				tc.Write(p, r, runs(r))
				if p.Now() > wall {
					wall = p.Now()
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return wall
	}
	fw, cw := funnelWall(), collWall()
	if cw >= fw {
		t.Fatalf("collective %g not faster than funnel %g", cw, fw)
	}
}

func TestFunnelValidation(t *testing.T) {
	e, fs := testFS(t, 2)
	f, _ := fs.Create("x", pfs.Layout{StripeUnit: 65536, StripeFactor: 2, FirstNode: 0}, 0)
	comm, _ := mp.New(e, fs.Network(), 2)
	c0, _ := NewClient(fs, comm.NodeOf(0), fortranLike(), nil)
	if _, err := NewFunnel(comm, &Handle{c: c0, f: f}, 0); err == nil {
		t.Fatal("zero chunk accepted")
	}
	c1, _ := NewClient(fs, comm.NodeOf(1), fortranLike(), nil)
	if _, err := NewFunnel(comm, &Handle{c: c1, f: f}, 8192); err == nil {
		t.Fatal("handle on non-zero rank accepted")
	}
}

func TestChunksOfSplitsExactly(t *testing.T) {
	fn := &Funnel{chunk: 1000}
	chunks := fn.chunksOf(ooc.Run{Off: 500, Len: 2500})
	if len(chunks) != 3 {
		t.Fatalf("chunks = %d, want 3", len(chunks))
	}
	if chunks[2].Len != 500 || chunks[2].Off != 2500 {
		t.Fatalf("tail chunk = %+v", chunks[2])
	}
	var total int64
	for _, c := range chunks {
		total += c.Len
	}
	if total != 2500 {
		t.Fatalf("chunk total = %d", total)
	}
}

// BenchmarkFunnelWrite measures one collective funnelled write by four
// ranks: rank 0 posts 96 chunks of its own, enough to fill the 64-slot
// window, then 8 from each peer.
func BenchmarkFunnelWrite(b *testing.B) {
	const procs = 4
	e, fs := chainFS(b, 4, 2e-9)
	f, err := fs.Create("ckpt", pfs.Layout{StripeUnit: 64 << 10, StripeFactor: 4}, 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	comm, err := mp.New(e, fs.Network(), procs)
	if err != nil {
		b.Fatal(err)
	}
	c0, err := NewClient(fs, comm.NodeOf(0), fortranLike(), nil)
	if err != nil {
		b.Fatal(err)
	}
	fn, err := NewFunnel(comm, &Handle{c: c0, f: f}, 8192)
	if err != nil {
		b.Fatal(err)
	}
	for r := 0; r < procs; r++ {
		r := r
		runs := []ooc.Run{{Off: 768<<10 + int64(r)*(64<<10), Len: 64 << 10}}
		if r == 0 {
			runs = []ooc.Run{{Off: 0, Len: 768 << 10}}
		}
		e.Spawn("rank", func(p *sim.Proc) {
			for i := 0; i < b.N; i++ {
				fn.Write(p, r, runs)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
