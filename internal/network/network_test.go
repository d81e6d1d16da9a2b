package network

import (
	"math"
	"testing"

	"pario/internal/sim"
	"pario/internal/topology"
)

func testParams() Params {
	return Params{Latency: 50e-6, ByteTime: 1e-8, HopTime: 1e-6, MemCopyByteTime: 2e-9}
}

func newNet(t *testing.T) (*sim.Engine, *Network) {
	t.Helper()
	return netWith(t, testParams())
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestSendUncontendedMatchesTransferTime(t *testing.T) {
	e, n := newNet(t)
	var took float64
	e.Spawn("s", func(p *sim.Proc) {
		start := p.Now()
		n.Send(p, 0, 15, 1<<20)
		took = p.Now() - start
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := n.TransferTime(0, 15, 1<<20); !almost(took, want) {
		t.Fatalf("send took %g, want %g", took, want)
	}
}

func TestTransferTimeComponents(t *testing.T) {
	_, n := newNet(t)
	p := testParams()
	// 0 -> 15 is 6 hops on the 4x4 mesh.
	want := p.Latency + 6*p.HopTime + float64(1000)*p.ByteTime
	if got := n.TransferTime(0, 15, 1000); !almost(got, want) {
		t.Fatalf("TransferTime = %g, want %g", got, want)
	}
}

func TestLocalSendIsMemcpy(t *testing.T) {
	e, n := newNet(t)
	var took float64
	e.Spawn("s", func(p *sim.Proc) {
		start := p.Now()
		n.Send(p, 3, 3, 1000)
		took = p.Now() - start
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := 1000 * testParams().MemCopyByteTime
	if !almost(took, want) {
		t.Fatalf("local send took %g, want %g", took, want)
	}
}

func TestReceiverContentionSerializes(t *testing.T) {
	e, n := newNet(t)
	const size = 10 << 20 // large enough that bandwidth dominates
	var finishes []float64
	for i := 0; i < 3; i++ {
		src := i
		e.Spawn("s", func(p *sim.Proc) {
			n.Send(p, src, 15, size)
			finishes = append(finishes, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	xfer := float64(size) * testParams().ByteTime
	// Third sender must wait for two full transfers at the receiver NIC.
	if finishes[2] < 3*xfer {
		t.Fatalf("third finish %g < 3 transfers %g: no receiver contention", finishes[2], 3*xfer)
	}
}

func TestDistinctReceiversDoNotContend(t *testing.T) {
	e, n := newNet(t)
	const size = 10 << 20
	var finishes []float64
	for i := 0; i < 3; i++ {
		src, dst := i, 12+i
		e.Spawn("s", func(p *sim.Proc) {
			n.Send(p, src, dst, size)
			finishes = append(finishes, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	xfer := float64(size) * testParams().ByteTime
	for _, f := range finishes {
		if f > 1.5*xfer {
			t.Fatalf("finish %g suggests cross-receiver contention (xfer %g)", f, xfer)
		}
	}
}

func TestCounters(t *testing.T) {
	e, n := newNet(t)
	e.Spawn("s", func(p *sim.Proc) {
		n.Send(p, 0, 1, 100)
		n.Send(p, 1, 2, 200)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	reg := e.Metrics()
	if msgs, bytes := reg.Counter("net.msgs").Value(), reg.Counter("net.bytes").Value(); msgs != 2 || bytes != 300 {
		t.Fatalf("counters = %d msgs / %d bytes, want 2/300", msgs, bytes)
	}
}

func TestNegativeSizePanics(t *testing.T) {
	e, n := newNet(t)
	e.Spawn("s", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("negative size did not panic")
			}
			panic("unwind") // keep the process from continuing
		}()
		n.Send(p, 0, 1, -1)
	})
	defer func() { recover() }()
	_ = e.Run()
}

func TestInvalidParamsRejected(t *testing.T) {
	e := sim.NewEngine()
	topo, _ := topology.NewMesh2D(2, 2, 2, 1, 0)
	if _, err := New(e, topo, Params{}); err == nil {
		t.Fatal("zero ByteTime accepted")
	}
}
