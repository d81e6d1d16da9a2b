package pio

import (
	"reflect"
	"strings"
	"testing"

	"pario/internal/disk"
	"pario/internal/ionode"
	"pario/internal/network"
	"pario/internal/pfs"
	"pario/internal/sim"
	"pario/internal/topology"
	"pario/internal/trace"
)

// chainFS builds a small machine with nio I/O nodes, each a single disk.
func chainFS(t testing.TB, nio int, memCopy float64) (*sim.Engine, *pfs.FS) {
	t.Helper()
	e := sim.NewEngine()
	topo, err := topology.NewMesh2D(4, 4, 8, nio, 0)
	if err != nil {
		t.Fatal(err)
	}
	net, err := network.New(e, topo, network.Params{
		Latency: 50e-6, ByteTime: 1e-8, HopTime: 1e-6, MemCopyByteTime: memCopy,
	})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := pfs.New(e, net, ionode.Params{
		ServerOverhead: 0.5e-3,
		NumDisks:       1,
		Disk: disk.Params{
			RequestOverhead: 1e-3, SeekMin: 2e-3, SeekMax: 20e-3,
			FullStroke: 1 << 30, ByteTime: 2e-7,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, fs
}

// chainOutcome is everything a run of chainScript exposes.
type chainOutcome struct {
	Ops     []map[trace.Op]trace.OpStats
	Hists   []map[trace.Op][]int64
	Pos     []int64
	Now     float64
	Events  uint64
	Metrics string
}

const chainSU = 64 << 10 // stripe unit of the chainScript file

// chainScript runs two ranks through every shape of data call against one
// file striped over four I/O nodes: reads and writes of zero bytes, of one
// chunk and of chunks on several nodes, sequential and repositioned, and
// prefetches awaited both after they finished and while in flight. With
// resilient set, the file system carries a retry policy that never fires.
func chainScript(t *testing.T, par ClientParams, memCopy float64, resilient bool) (chainOutcome, uint64) {
	t.Helper()
	e, fs := chainFS(t, 4, memCopy)
	if resilient {
		fs.SetResilience(pfs.Resilience{Retries: 2, BackoffSec: 1e-3})
	}
	f, err := fs.Create("x", pfs.Layout{StripeUnit: chainSU, StripeFactor: 4}, 64*chainSU)
	if err != nil {
		t.Fatal(err)
	}
	const ranks = 2
	recs := make([]*trace.Recorder, ranks)
	handles := make([]*Handle, ranks)
	for r := 0; r < ranks; r++ {
		recs[r] = trace.NewRecorder()
		c, err := NewClient(fs, fs.Network().Topology().ComputeNode(r), par, recs[r])
		if err != nil {
			t.Fatal(err)
		}
		r := r
		e.Spawn("rank", func(p *sim.Proc) {
			h := c.Open(p, f)
			handles[r] = h
			base := int64(r) * 16 * chainSU
			h.WriteAt(p, base, 0)
			h.WriteAt(p, base, 4096)                // one chunk
			h.Write(p, 3*chainSU)                   // sequential, three nodes
			h.WriteAt(p, base+8*chainSU, chainSU/2) // repositioned
			h.ReadAt(p, base, 0)
			h.ReadAt(p, base+100, 4096)
			h.Read(p, 2*chainSU)
			h.ReadAt(p, (1-int64(r))*16*chainSU, 4*chainSU) // the other rank's range
			hit := h.ReadAsync(base+chainSU, 2*chainSU)
			p.Delay(1) // long enough for the prefetch to finish
			h.Await(p, hit)
			miss := h.ReadAsync(base+2*chainSU, 3*chainSU)
			h.Await(p, miss)
			one := h.ReadAsync(base, 4096)
			empty := h.ReadAsync(base, 0)
			h.Await(p, one)
			h.Await(p, empty)
			h.Flush(p)
			h.Close(p)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	out := chainOutcome{Now: e.Now(), Events: e.Events()}
	for r := 0; r < ranks; r++ {
		ops := map[trace.Op]trace.OpStats{}
		hists := map[trace.Op][]int64{}
		for _, op := range trace.Ops {
			ops[op] = recs[r].Get(op)
			hists[op] = recs[r].Histogram(op)
		}
		out.Ops = append(out.Ops, ops)
		out.Hists = append(out.Hists, hists)
		out.Pos = append(out.Pos, handles[r].Pos())
	}
	snap := e.Metrics().Snapshot(e.Now())
	kept := snap.Counters[:0]
	for _, c := range snap.Counters {
		// Registered by SetResilience; the policy never fires.
		if c.Name == "pfs.retries" || c.Name == "pfs.timeouts" || c.Name == "pfs.aborted_ops" {
			if c.Value != 0 {
				t.Fatalf("%s = %d, want 0", c.Name, c.Value)
			}
			continue
		}
		kept = append(kept, c)
	}
	snap.Counters = kept
	out.Metrics = snap.Table()
	return out, e.Resumes()
}

// A retry policy that never fires changes nothing observable — per-rank
// op statistics, handle positions, the final clock, the event count, every
// layer metric — and costs the issuers no wake: its retries are states of
// the transfer's chain, not a process.
func TestPolicyCallsMatchHealthy(t *testing.T) {
	for _, par := range []ClientParams{fortranLike(), passionLike(), sp2UnixLike()} {
		for _, memCopy := range []float64{2e-9, 0} {
			healthy, healthyResumes := chainScript(t, par, memCopy, false)
			resilient, resilientResumes := chainScript(t, par, memCopy, true)
			if !reflect.DeepEqual(healthy, resilient) {
				t.Errorf("%s, memcopy %g: run under a policy differs from the healthy run\nhealthy: %+v\npolicy:  %+v",
					par.Name, memCopy, healthy, resilient)
			}
			if healthyResumes != resilientResumes {
				t.Errorf("%s, memcopy %g: run under a policy resumed %d times, healthy run %d; want equal",
					par.Name, memCopy, resilientResumes, healthyResumes)
			}
			if healthy.Ops[0][trace.Read].Count != 8 || healthy.Ops[0][trace.Write].Count != 4 {
				t.Errorf("%s: script recorded %d reads, %d writes; want 8, 4", par.Name,
					healthy.Ops[0][trace.Read].Count, healthy.Ops[0][trace.Write].Count)
			}
			if !strings.Contains(healthy.Metrics, "pio.prefetch_hits") {
				t.Errorf("%s: no prefetch metrics in\n%s", par.Name, healthy.Metrics)
			}
		}
	}
}

// interleavedReads runs two ranks, each issuing k explicit-seek ReadAt
// calls into its own stripe, so the ranks' stages interleave on the clock.
func interleavedReads(t testing.TB, k int) *sim.Engine {
	e, fs := chainFS(t, 2, 2e-9)
	f, err := fs.Create("x", pfs.Layout{StripeUnit: chainSU, StripeFactor: 2}, 4*chainSU)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		c, err := NewClient(fs, fs.Network().Topology().ComputeNode(r), passionLike(), nil)
		if err != nil {
			t.Fatal(err)
		}
		off := int64(r) * chainSU
		e.Spawn("rank", func(p *sim.Proc) {
			h := c.Open(p, f)
			for i := 0; i < k; i++ {
				h.ReadAt(p, off, 4096)
			}
		})
	}
	return e
}

// A data call resumes its caller once however many stages it has: the seek
// and call-overhead delays and the transfer's chunk stages are callbacks.
func TestReadAtResumesOncePerCall(t *testing.T) {
	const k = 50
	e := interleavedReads(t, k)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Per rank: the activation, the open's wake, one wake per ReadAt.
	if got, limit := e.Resumes(), uint64(2*(k+2)); got > limit {
		t.Fatalf("%d resumes for 2 ranks x %d ReadAt calls, want <= %d", got, k, limit)
	}
	if e.Events() < 2*k*5 {
		t.Fatalf("only %d events: the calls did not run their stages", e.Events())
	}
}

// A steady-state ReadAt allocates nothing: the call's continuation, the
// transfer and its chunk chains all come from free lists.
func TestReadAtAllocationFree(t *testing.T) {
	e, fs := chainFS(t, 2, 2e-9)
	f, err := fs.Create("x", pfs.Layout{StripeUnit: chainSU, StripeFactor: 2}, 4*chainSU)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(fs, fs.Network().Topology().ComputeNode(0), passionLike(), nil)
	if err != nil {
		t.Fatal(err)
	}
	checked := false
	e.Spawn("rank", func(p *sim.Proc) {
		h := c.Open(p, f)
		for i := 0; i < 8; i++ {
			h.ReadAt(p, 0, 2*chainSU) // warm the free lists and queues
		}
		for _, n := range []int64{4096, 2 * chainSU} {
			if avg := testing.AllocsPerRun(100, func() { h.ReadAt(p, 0, n) }); avg != 0 {
				t.Errorf("ReadAt of %d bytes allocates %g/op, want 0", n, avg)
			}
		}
		checked = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !checked {
		t.Fatal("allocation check did not run")
	}
}

// BenchmarkReadAtInterleaved measures two ranks issuing explicit-seek
// ReadAt calls against a two-node striped file: per op, one call of each
// rank with its seek, call overhead and one-chunk transfer.
func BenchmarkReadAtInterleaved(b *testing.B) {
	e := interleavedReads(b, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// Pooled call state carries nothing from one call to the next: a client
// whose file system gains a resilience policy mid-run runs its next calls
// under it.
func TestPolicyChangeMidRun(t *testing.T) {
	e, fs := chainFS(t, 2, 2e-9)
	f, err := fs.Create("x", pfs.Layout{StripeUnit: chainSU, StripeFactor: 2}, 4*chainSU)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(fs, fs.Network().Topology().ComputeNode(0), passionLike(), nil)
	if err != nil {
		t.Fatal(err)
	}
	e.Spawn("rank", func(p *sim.Proc) {
		h := c.Open(p, f)
		h.Await(p, h.ReadAsync(0, 2*chainSU))
		h.ReadAt(p, 0, 2*chainSU)
		fs.SetResilience(pfs.Resilience{Retries: 1})
		h.Await(p, h.ReadAsync(0, 2*chainSU))
		h.ReadAt(p, 0, 2*chainSU)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := c.Recorder().Get(trace.Read).Count; got != 4 {
		t.Fatalf("%d reads recorded, want 4", got)
	}
}
