package pio

import (
	"sort"
	"testing"

	"pario/internal/mp"
	"pario/internal/pfs"
	"pario/internal/sim"
	"pario/internal/trace"
)

func modesRig(t *testing.T, procs int, mode Mode, record int64) (*sim.Engine, []*trace.Recorder, *SharedFile) {
	t.Helper()
	e, fs := testFS(t, 4)
	f, err := fs.Create("shared", pfs.Layout{StripeUnit: 65536, StripeFactor: 4, FirstNode: 0}, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	comm, err := mp.New(e, fs.Network(), procs)
	if err != nil {
		t.Fatal(err)
	}
	handles := make([]*Handle, procs)
	recs := make([]*trace.Recorder, procs)
	for r := 0; r < procs; r++ {
		recs[r] = trace.NewRecorder()
		c, err := NewClient(fs, comm.NodeOf(r), sp2UnixLike(), recs[r])
		if err != nil {
			t.Fatal(err)
		}
		handles[r] = &Handle{c: c, f: f}
	}
	sf, err := NewSharedFile(comm, handles, mode, record)
	if err != nil {
		t.Fatal(err)
	}
	return e, recs, sf
}

func TestModeLogOffsetsAreDisjointAppends(t *testing.T) {
	const procs = 4
	e, _, sf := modesRig(t, procs, ModeLog, 0)
	var offs []int64
	for r := 0; r < procs; r++ {
		r := r
		e.Spawn("rank", func(p *sim.Proc) {
			for i := 0; i < 3; i++ {
				offs = append(offs, sf.Write(p, r, 1000))
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
	for i, o := range offs {
		if o != int64(i)*1000 {
			t.Fatalf("offsets = %v, want dense multiples of 1000", offs)
		}
	}
}

func TestModeLogSerializes(t *testing.T) {
	// With the pointer held across the whole operation, P concurrent
	// writers take ~P times one writer's latency.
	wallFor := func(procs int) float64 {
		e, _, sf := modesRig(t, procs, ModeLog, 0)
		var wall float64
		for r := 0; r < procs; r++ {
			r := r
			e.Spawn("rank", func(p *sim.Proc) {
				sf.Write(p, r, 262144)
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
	if w4, w1 := wallFor(4), wallFor(1); w4 < 3*w1 {
		t.Fatalf("M_LOG 4 writers %g not ~4x one writer %g", w4, w1)
	}
}

func TestModeSyncLaysOutByRank(t *testing.T) {
	const procs = 4
	e, _, sf := modesRig(t, procs, ModeSync, 0)
	offs := make([]int64, procs)
	for r := 0; r < procs; r++ {
		r := r
		e.Spawn("rank", func(p *sim.Proc) {
			offs[r] = sf.Write(p, r, 2000)
			offs2 := sf.Write(p, r, 2000)
			if offs2 != int64(procs)*2000+int64(r)*2000 {
				t.Errorf("rank %d second op at %d", r, offs2)
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for r, o := range offs {
		if o != int64(r)*2000 {
			t.Fatalf("rank %d first op at %d, want %d", r, o, r*2000)
		}
	}
}

func TestModeSyncWaitsForSlowest(t *testing.T) {
	const procs = 4
	e, _, sf := modesRig(t, procs, ModeSync, 0)
	departs := make([]float64, procs)
	for r := 0; r < procs; r++ {
		r := r
		e.Spawn("rank", func(p *sim.Proc) {
			p.Delay(float64(r)) // staggered arrival
			sf.Write(p, r, 1000)
			departs[r] = p.Now()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for r, d := range departs {
		if d < 3 { // slowest arrives at t=3
			t.Fatalf("rank %d departed at %g before the slowest arrived", r, d)
		}
	}
}

func TestModeRecordRoundRobin(t *testing.T) {
	const procs = 3
	e, _, sf := modesRig(t, procs, ModeRecord, 512)
	offs := make([][]int64, procs)
	for r := 0; r < procs; r++ {
		r := r
		e.Spawn("rank", func(p *sim.Proc) {
			for i := 0; i < 3; i++ {
				offs[r] = append(offs[r], sf.Write(p, r, 512))
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < procs; r++ {
		for k := 0; k < 3; k++ {
			want := int64(k*procs+r) * 512
			if offs[r][k] != want {
				t.Fatalf("rank %d op %d at %d, want %d", r, k, offs[r][k], want)
			}
		}
	}
}

func TestModeRecordWrongSizePanics(t *testing.T) {
	e, _, sf := modesRig(t, 2, ModeRecord, 512)
	e.Spawn("rank", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("wrong record size did not panic")
			}
			panic("unwind")
		}()
		sf.Write(p, 0, 100)
	})
	defer func() { recover() }()
	_ = e.Run()
}

func TestModeGlobalOneDiskReadManyReceivers(t *testing.T) {
	const procs = 4
	e, recs, sf := modesRig(t, procs, ModeGlobal, 0)
	for r := 0; r < procs; r++ {
		r := r
		e.Spawn("rank", func(p *sim.Proc) {
			off := sf.Read(p, r, 65536)
			if off != 0 {
				t.Errorf("rank %d read at %d, want 0", r, off)
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var fileReads int64
	for _, rec := range recs {
		fileReads += rec.Get(trace.Read).Count
	}
	if fileReads != 1 {
		t.Fatalf("file reads = %d, want exactly 1 (rank 0 only)", fileReads)
	}
}

func TestModeGlobalWritePanics(t *testing.T) {
	e, _, sf := modesRig(t, 2, ModeGlobal, 0)
	for r := 0; r < 2; r++ {
		r := r
		e.Spawn("rank", func(p *sim.Proc) {
			defer func() {
				recover()
				panic("unwind")
			}()
			sf.Write(p, r, 100)
		})
	}
	defer func() { recover() }()
	_ = e.Run()
}

func TestModeUnixIndependent(t *testing.T) {
	const procs = 2
	e, _, sf := modesRig(t, procs, ModeUnix, 0)
	for r := 0; r < procs; r++ {
		r := r
		e.Spawn("rank", func(p *sim.Proc) {
			if off := sf.Write(p, r, 100); off != 0 {
				t.Errorf("rank %d first M_UNIX op at %d, want 0 (own pointer)", r, off)
			}
			if off := sf.Write(p, r, 100); off != 100 {
				t.Errorf("rank %d second M_UNIX op at %d, want 100", r, off)
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSharedFileValidation(t *testing.T) {
	e, fs := testFS(t, 2)
	f, _ := fs.Create("x", pfs.Layout{StripeUnit: 65536, StripeFactor: 2, FirstNode: 0}, 0)
	comm, _ := mp.New(e, fs.Network(), 2)
	c0, _ := NewClient(fs, comm.NodeOf(0), sp2UnixLike(), nil)
	c1, _ := NewClient(fs, comm.NodeOf(1), sp2UnixLike(), nil)
	hs := []*Handle{{c: c0, f: f}, {c: c1, f: f}}
	if _, err := NewSharedFile(comm, hs[:1], ModeUnix, 0); err == nil {
		t.Fatal("handle count mismatch accepted")
	}
	if _, err := NewSharedFile(comm, hs, ModeRecord, 0); err == nil {
		t.Fatal("M_RECORD without record size accepted")
	}
	if _, err := NewSharedFile(comm, hs, Mode(99), 0); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestModeStrings(t *testing.T) {
	want := map[Mode]string{
		ModeUnix: "M_UNIX", ModeLog: "M_LOG", ModeSync: "M_SYNC",
		ModeRecord: "M_RECORD", ModeGlobal: "M_GLOBAL",
	}
	for m, s := range want {
		if m.String() != s {
			t.Fatalf("%d.String() = %q, want %q", m, m.String(), s)
		}
	}
}
