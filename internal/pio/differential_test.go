package pio

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"pario/internal/disk"
	"pario/internal/ionode"
	"pario/internal/mp"
	"pario/internal/network"
	"pario/internal/ooc"
	"pario/internal/pfs"
	"pario/internal/sim"
	"pario/internal/topology"
	"pario/internal/trace"
)

var updateDiff = flag.Bool("update", false, "rewrite testdata/differential.golden")

// The differential scenarios pin, byte for byte, what the funnel's posted
// writes, M_LOG's pointer token and the device stalls do to a run: the
// final clock, the event count, the virtual time every call returns, every
// recorder's per-op statistics and the metrics table. Process resumes are
// pinned as an upper bound only: how many driver handoffs a model costs is
// the kernel's business, and it may only fall.

// diffLog accumulates one scenario's observable outcome.
type diffLog struct{ b strings.Builder }

func (l *diffLog) printf(format string, args ...any) { fmt.Fprintf(&l.b, format+"\n", args...) }

// returned notes the virtual time at which a call by who returned.
func (l *diffLog) returned(who string, p *sim.Proc, what string) {
	l.printf("%s %s returns at %v", who, what, p.Now())
}

// finish appends the engine totals, the recorders and the metrics table.
func (l *diffLog) finish(e *sim.Engine, recs []*trace.Recorder) string {
	l.printf("now %v", e.Now())
	l.printf("events %d", e.Events())
	l.printf("resumes %d", e.Resumes())
	for r, rec := range recs {
		for _, op := range trace.Ops {
			if s := rec.Get(op); s.Count > 0 {
				l.printf("rec%d %s %+v hist %v", r, op, s, rec.Histogram(op))
			}
		}
	}
	l.b.WriteString(e.Metrics().Snapshot(e.Now()).Table())
	return l.b.String()
}

// diffFS builds a machine with nio single-disk I/O nodes whose network
// charges copyByteTime per byte of memory copy.
func diffFS(t *testing.T, nio int, cache int64, copyByteTime float64) (*sim.Engine, *pfs.FS) {
	t.Helper()
	e := sim.NewEngine()
	topo, err := topology.NewMesh2D(4, 4, 8, nio, 0)
	if err != nil {
		t.Fatal(err)
	}
	net, err := network.New(e, topo, network.Params{
		Latency: 50e-6, ByteTime: 1e-8, HopTime: 1e-6, MemCopyByteTime: copyByteTime,
	})
	if err != nil {
		t.Fatal(err)
	}
	par := ionode.Params{
		ServerOverhead: 0.5e-3,
		NumDisks:       1,
		Disk: disk.Params{
			RequestOverhead: 1e-3, SeekMin: 2e-3, SeekMax: 20e-3,
			FullStroke: 1 << 30, ByteTime: 2e-7,
		},
	}
	if cache > 0 {
		par.CacheBytes, par.CacheCopyByteTime = cache, 1e-8
	}
	fs, err := pfs.New(e, net, par)
	if err != nil {
		t.Fatal(err)
	}
	return e, fs
}

// funnelScenario runs two collective funnel writes by four ranks. Rank 0
// posts 160 chunks of its own before the peers' chunks, enough to fill the
// 64-slot window while its per-chunk call cost is paid.
func funnelScenario(t *testing.T, layout pfs.Layout, cache int64, resil *pfs.Resilience) string {
	const procs = 4
	e, fs := diffFS(t, layout.StripeFactor, cache, 2e-9)
	if resil != nil {
		fs.SetResilience(*resil)
	}
	f, err := fs.Create("ckpt", layout, 8<<20)
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
	fn, err := NewFunnel(comm, &Handle{c: c0, f: f}, 8192)
	if err != nil {
		t.Fatal(err)
	}
	fn.SetRecorders(recs)
	fn.SetCallCost(2e-4)
	var l diffLog
	for r := 0; r < procs; r++ {
		r := r
		e.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
			for round := int64(0); round < 2; round++ {
				base := round * (4 << 20)
				var runs []ooc.Run
				if r == 0 {
					runs = []ooc.Run{{Off: base, Len: 1 << 20}, {Off: base + (1 << 20), Len: 300 << 10}}
				} else {
					// Two non-contiguous runs, the second not chunk-aligned.
					off := base + (2 << 20) + int64(r)*(256<<10)
					runs = []ooc.Run{{Off: off, Len: 64 << 10}, {Off: off + (128 << 10), Len: 20000}}
				}
				fn.Write(p, r, runs)
				l.returned(p.Name(), p, fmt.Sprintf("write %d", round))
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return l.finish(e, recs)
}

// modeLogScenario has eight ranks contend for M_LOG's pointer token, three
// appends each, the first at the same instant.
func modeLogScenario(t *testing.T) string {
	const procs = 8
	e, fs := diffFS(t, 4, 0, 2e-9)
	f, err := fs.Create("log", pfs.Layout{StripeUnit: 65536, StripeFactor: 4}, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	comm, err := mp.New(e, fs.Network(), procs)
	if err != nil {
		t.Fatal(err)
	}
	handles := make([]*Handle, procs)
	recs := make([]*trace.Recorder, procs)
	for r := range handles {
		recs[r] = trace.NewRecorder()
		c, err := NewClient(fs, comm.NodeOf(r), sp2UnixLike(), recs[r])
		if err != nil {
			t.Fatal(err)
		}
		handles[r] = &Handle{c: c, f: f}
	}
	sf, err := NewSharedFile(comm, handles, ModeLog, 0)
	if err != nil {
		t.Fatal(err)
	}
	var l diffLog
	for r := 0; r < procs; r++ {
		r := r
		e.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
			for i := 0; i < 3; i++ {
				n := int64(10000 + 1000*r)
				var off int64
				if i == 1 {
					off = sf.Read(p, r, n)
				} else {
					off = sf.Write(p, r, n)
				}
				l.returned(p.Name(), p, fmt.Sprintf("op %d at %d", i, off))
				if r%3 == 0 {
					p.Delay(1e-3 * float64(r))
				}
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return l.finish(e, recs)
}

// prefetchScenario streams half a file per rank through a depth-2
// Prefetcher on two ranks, computing for compute seconds after each
// chunk, on a network that charges copyByteTime per copied byte. Each
// rank's first chunk is a miss; with compute covering a read the rest
// are hits, and without it they are misses.
func prefetchScenario(t *testing.T, compute, copyByteTime float64) string {
	const procs, half, chunk = 2, 512 << 10, 64 << 10
	e, fs := diffFS(t, 2, 0, copyByteTime)
	f, err := fs.Create("stream", pfs.Layout{StripeUnit: chunk, StripeFactor: 2}, procs*half)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]*trace.Recorder, procs)
	var l diffLog
	for r := range recs {
		recs[r] = trace.NewRecorder()
		c, err := NewClient(fs, r, passionLike(), recs[r])
		if err != nil {
			t.Fatal(err)
		}
		start := int64(r) * half
		e.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
			pf := NewPrefetcher(c.Open(p, f), start, start+half-1000, chunk, 2)
			for i := 0; ; i++ {
				n := pf.Read(p)
				if n == 0 {
					break
				}
				l.returned(p.Name(), p, fmt.Sprintf("chunk %d (%d B)", i, n))
				p.Delay(compute)
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return l.finish(e, recs)
}

// stallRequests is the request stream both stall scenarios run: three
// clients issuing back to back, a client that arrives at the instant of a
// scheduled stall, and one that stalls the device itself and then issues.
func stallRequests(e *sim.Engine, l *diffLog, access func(p *sim.Proc, i int, off int64) error, stall func(float64)) {
	for c := 0; c < 3; c++ {
		c := c
		e.Spawn(fmt.Sprintf("client%d", c), func(p *sim.Proc) {
			for i := 0; i < 6; i++ {
				off := int64((c*7+i*13)%32) * (64 << 10)
				err := access(p, c+i, off)
				l.returned(p.Name(), p, fmt.Sprintf("access %d (err %v)", i, err))
			}
		})
	}
	// A stall at 10ms with requests queued, a stall at the instant a
	// request arrives, two stalls back to back, a stall hard behind
	// another, and one on an idle device.
	e.ScheduleStep(0.010, sim.Step{Fn: func() { stall(0.020) }})
	e.ScheduleStep(0.045, sim.Step{Fn: func() { stall(0.010) }})
	e.ScheduleStep(0.080, sim.Step{Fn: func() { stall(0.005); stall(0.007) }})
	e.ScheduleStep(0.120, sim.Step{Fn: func() { stall(0.004) }})
	e.ScheduleStep(0.124, sim.Step{Fn: func() { stall(0) }})
	e.ScheduleStep(0.500, sim.Step{Fn: func() { stall(0.003) }})
	e.Spawn("arrival", func(p *sim.Proc) {
		p.Delay(0.045)
		err := access(p, 100, 1<<20)
		l.returned(p.Name(), p, fmt.Sprintf("access (err %v)", err))
		p.Delay(0.5 - p.Now())
		err = access(p, 101, 2<<20)
		l.returned(p.Name(), p, fmt.Sprintf("access (err %v)", err))
	})
	e.Spawn("staller", func(p *sim.Proc) {
		p.Delay(0.060)
		stall(0.002)
		err := access(p, 102, 3<<20)
		l.returned(p.Name(), p, fmt.Sprintf("access (err %v)", err))
	})
}

func diskStallScenario(t *testing.T) string {
	e := sim.NewEngine()
	d, err := disk.New(e, "d0", disk.Params{
		RequestOverhead: 1e-3, SeekMin: 2e-3, SeekMax: 20e-3, FullStroke: 1 << 30, ByteTime: 2e-7,
	})
	if err != nil {
		t.Fatal(err)
	}
	var l diffLog
	stallRequests(e, &l, func(p *sim.Proc, i int, off int64) error {
		return d.Access(p, off, 8192, i%2 == 0)
	}, d.Stall)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	l.printf("disk %+v head %d", d.Stats(), d.Head())
	return l.finish(e, nil)
}

func ionodeStallScenario(t *testing.T) string {
	e := sim.NewEngine()
	n, err := ionode.New(e, "io0", ionode.Params{
		ServerOverhead: 2e-3,
		NumDisks:       2,
		Disk: disk.Params{
			RequestOverhead: 1e-3, SeekMin: 2e-3, SeekMax: 20e-3, FullStroke: 1 << 30, ByteTime: 2e-7,
		},
		CacheBytes:        32 << 10,
		CacheCopyByteTime: 1e-8,
	})
	if err != nil {
		t.Fatal(err)
	}
	var l diffLog
	stallRequests(e, &l, func(p *sim.Proc, i int, off int64) error {
		return n.Access(p, i%2, off, 8192, i%3 != 0)
	}, n.Stall)
	// A drive stall under the node's, to overlap queued drains.
	e.ScheduleStep(0.030, sim.Step{Fn: func() { n.Disk(1).Stall(0.015) }})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	l.printf("node %+v requests %d dirty %d", n.Stats(), n.Requests(), n.DirtyBytes())
	return l.finish(e, nil)
}

func TestEventChainDifferential(t *testing.T) {
	oneNode := pfs.Layout{StripeUnit: 64 << 10, StripeFactor: 1}
	// 4 KB stripe units: every 8 KB chunk spans two I/O nodes.
	multiNode := pfs.Layout{StripeUnit: 4 << 10, StripeFactor: 4}
	quiet := &pfs.Resilience{TimeoutSec: 5, Retries: 2, BackoffSec: 1e-3}
	scenarios := []struct {
		name string
		run  func(t *testing.T) string
	}{
		{"funnel/1node", func(t *testing.T) string { return funnelScenario(t, oneNode, 0, nil) }},
		{"funnel/1node/resilient", func(t *testing.T) string { return funnelScenario(t, oneNode, 0, quiet) }},
		{"funnel/multinode", func(t *testing.T) string { return funnelScenario(t, multiNode, 0, nil) }},
		{"funnel/multinode/resilient", func(t *testing.T) string { return funnelScenario(t, multiNode, 0, quiet) }},
		{"funnel/multinode/writebehind", func(t *testing.T) string { return funnelScenario(t, multiNode, 256<<10, nil) }},
		{"modelog/8ranks", modeLogScenario},
		{"stall/disk", diskStallScenario},
		{"stall/ionode", ionodeStallScenario},
		{"prefetch/hit", func(t *testing.T) string { return prefetchScenario(t, 0.5, 2e-9) }},
		{"prefetch/miss", func(t *testing.T) string { return prefetchScenario(t, 0, 2e-9) }},
		{"prefetch/miss/nocopy", func(t *testing.T) string { return prefetchScenario(t, 0, 0) }},
	}
	var got strings.Builder
	for _, sc := range scenarios {
		fmt.Fprintf(&got, "== %s\n%s", sc.name, sc.run(t))
	}
	path := filepath.Join("testdata", "differential.golden")
	if *updateDiff {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	compareDifferential(t, got.String(), string(want))
}

// compareDifferential requires got to equal want line for line, except
// that a "resumes N" line may carry any N up to the pinned one.
func compareDifferential(t *testing.T, got, want string) {
	t.Helper()
	gs, ws := bufio.NewScanner(strings.NewReader(got)), bufio.NewScanner(strings.NewReader(want))
	section := ""
	for line := 1; ; line++ {
		gok, wok := gs.Scan(), ws.Scan()
		if !gok || !wok {
			if gok != wok {
				t.Fatalf("line %d (%s): output and golden differ in length", line, section)
			}
			return
		}
		g, w := gs.Text(), ws.Text()
		if strings.HasPrefix(w, "== ") {
			section = w
		}
		if gn, ok := strings.CutPrefix(g, "resumes "); ok {
			if wn, ok := strings.CutPrefix(w, "resumes "); ok {
				gv, _ := strconv.Atoi(gn)
				wv, _ := strconv.Atoi(wn)
				if gv > wv {
					t.Errorf("%s: %d process resumes, pinned at most %d", section, gv, wv)
				}
				continue
			}
		}
		if g != w {
			t.Fatalf("line %d (%s):\n got  %s\n want %s", line, section, g, w)
		}
	}
}
