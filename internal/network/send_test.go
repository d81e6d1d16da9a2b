package network

import (
	"testing"

	"pario/internal/sim"
	"pario/internal/topology"
)

// msgSpec is one message of a differential case: sent at virtual time at.
type msgSpec struct {
	at       float64
	src, dst int
	size     int64
}

// sendOutcome is everything the two ways of sending must agree on.
type sendOutcome struct {
	delivered     []float64 // per message, in spec order
	events        uint64
	stalls        int64
	msgs, bytes   int64
	nicWait       []float64 // TotalWait of every node's NIC
	nicsIdleAtEnd bool
}

func netWith(t testing.TB, par Params) (*sim.Engine, *Network) {
	t.Helper()
	e := sim.NewEngine()
	topo, err := topology.NewMesh2D(4, 4, 12, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(e, topo, par)
	if err != nil {
		t.Fatal(err)
	}
	return e, n
}

func outcome(e *sim.Engine, n *Network, delivered []float64) sendOutcome {
	reg := e.Metrics()
	o := sendOutcome{
		delivered:     delivered,
		events:        e.Events(),
		stalls:        reg.Counter("net.stalls").Value(),
		msgs:          reg.Counter("net.msgs").Value(),
		bytes:         reg.Counter("net.bytes").Value(),
		nicsIdleAtEnd: true,
	}
	for node := 0; node < n.Topology().NumNodes(); node++ {
		nic := n.NIC(node)
		o.nicWait = append(o.nicWait, nic.TotalWait())
		if nic.InUse() != 0 { // a queued claim would hold a unit
			o.nicsIdleAtEnd = false
		}
	}
	return o
}

// viaSend sends every message with the blocking Send, one process each.
func viaSend(t *testing.T, par Params, specs []msgSpec) sendOutcome {
	e, n := netWith(t, par)
	delivered := make([]float64, len(specs))
	for i, s := range specs {
		e.Spawn("send", func(p *sim.Proc) {
			p.Delay(s.at)
			n.Send(p, s.src, s.dst, s.size)
			delivered[i] = p.Now()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return outcome(e, n, delivered)
}

// cbSender is a sender whose message is delivered by a callback.
type cbSender struct {
	t         *testing.T
	n         *Network
	m         Msg
	dst       int
	stepFn    func()
	delivered *float64
}

func (s *cbSender) step() {
	if s.m.Advance() {
		return
	}
	*s.delivered = s.n.eng.Now()
	if s.m.nic != nil {
		s.t.Errorf("callback delivery to node %d ran holding the NIC", s.dst)
	}
}

// viaCallback sends the same messages from the same processes with
// SendAsync and a callback delivery; each process exits once it has sent.
func viaCallback(t *testing.T, par Params, specs []msgSpec) sendOutcome {
	e, n := netWith(t, par)
	delivered := make([]float64, len(specs))
	for i, s := range specs {
		e.Spawn("send", func(p *sim.Proc) {
			p.Delay(s.at)
			c := &cbSender{t: t, n: n, dst: s.dst, delivered: &delivered[i]}
			c.stepFn = c.step
			if n.SendAsync(&c.m, s.src, s.dst, s.size, c.stepFn, sim.Step{Fn: c.stepFn}) {
				delivered[i] = p.Now()
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return outcome(e, n, delivered)
}

// Send and the event-driven send with a callback delivery are one model: the
// same messages give the same delivery times, the same events, the same
// counters and the same NIC waits, and leave every NIC idle.
func TestSendAsyncMatchesSend(t *testing.T) {
	zeroSetup := testParams()
	zeroSetup.Latency, zeroSetup.HopTime = 0, 0
	freeCopy := testParams()
	freeCopy.MemCopyByteTime = 0
	const big = 1 << 20
	fanIn := []msgSpec{{0, 0, 15, big}, {0, 1, 15, big}, {0, 2, 15, big}, {0, 3, 15, 100}}
	mixed := []msgSpec{
		{0, 0, 15, big}, {0, 15, 15, big}, {1e-4, 1, 15, big}, {2e-4, 2, 15, 64},
		{0, 4, 4, 0}, {5e-3, 3, 15, big}, {5e-3, 5, 6, big}, {0.2, 7, 15, big},
	}
	cases := []struct {
		name  string
		par   Params
		specs []msgSpec
	}{
		{"fan-in", testParams(), fanIn},
		{"fan-in zero setup", zeroSetup, fanIn},
		{"staggered mix", testParams(), mixed},
		{"staggered mix zero setup", zeroSetup, mixed},
		{"staggered mix free copy", freeCopy, mixed},
		{"local copies", testParams(), []msgSpec{{0, 3, 3, 1000}, {0, 3, 3, 0}, {1e-6, 3, 3, 500}}},
		{"free local copies", freeCopy, []msgSpec{{0, 3, 3, 1000}, {0, 2, 2, 10}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := viaSend(t, c.par, c.specs)
			got := viaCallback(t, c.par, c.specs)
			for i := range c.specs {
				if got.delivered[i] != want.delivered[i] {
					t.Errorf("message %d delivered at %g, Send at %g", i, got.delivered[i], want.delivered[i])
				}
			}
			if got.events != want.events {
				t.Errorf("events = %d, Send %d", got.events, want.events)
			}
			if got.stalls != want.stalls || got.msgs != want.msgs || got.bytes != want.bytes {
				t.Errorf("stalls/msgs/bytes = %d/%d/%d, Send %d/%d/%d",
					got.stalls, got.msgs, got.bytes, want.stalls, want.msgs, want.bytes)
			}
			for node := range want.nicWait {
				if got.nicWait[node] != want.nicWait[node] {
					t.Errorf("nic%d TotalWait = %g, Send %g", node, got.nicWait[node], want.nicWait[node])
				}
			}
			if !got.nicsIdleAtEnd || !want.nicsIdleAtEnd {
				t.Errorf("a NIC is still held or queued at the end (callback %v, Send %v)",
					!got.nicsIdleAtEnd, !want.nicsIdleAtEnd)
			}
		})
	}
	// The fan-in case must exercise contention, or it proves nothing.
	if out := viaSend(t, testParams(), fanIn); out.stalls == 0 {
		t.Fatal("fan-in case recorded no stalls")
	}
}

// A callback delivery runs after the message has released the NIC.
func TestCallbackDeliverySeesNICReleased(t *testing.T) {
	e, n := newNet(t)
	var m Msg
	inUse := -1
	var stepFn func()
	stepFn = func() {
		if !m.Advance() {
			inUse = n.NIC(15).InUse()
		}
	}
	e.ScheduleStep(0, sim.Step{Fn: func() { n.SendAsync(&m, 0, 15, 1000, stepFn, sim.Step{Fn: stepFn}) }})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if inUse != 0 {
		t.Fatalf("destination NIC in use %d at the callback delivery, want 0", inUse)
	}
}

// A process delivery wakes the sender still holding the NIC; End releases it.
func TestProcessDeliveryHoldsNICUntilEnd(t *testing.T) {
	e, n := newNet(t)
	e.Spawn("s", func(p *sim.Proc) {
		var m Msg
		step := func() { m.Advance() }
		if n.SendAsync(&m, 0, 15, 1000, step, sim.Step{P: p}) {
			t.Error("remote send reported an inline delivery")
			return
		}
		p.Suspend()
		if got := n.NIC(15).InUse(); got != 1 {
			t.Errorf("NIC in use %d after the wake, want 1 until End", got)
		}
		m.End()
		if got := n.NIC(15).InUse(); got != 0 {
			t.Errorf("NIC in use %d after End, want 0", got)
		}
		m.End() // a second End is a no-op
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// A zero-cost local copy is delivered inline: it is counted, and schedules
// nothing.
func TestFreeLocalCopySchedulesNothing(t *testing.T) {
	par := testParams()
	par.MemCopyByteTime = 0
	e, n := netWith(t, par)
	var m Msg
	fail := func() { t.Error("a free local copy ran a step") }
	inline := false
	e.ScheduleStep(0, sim.Step{Fn: func() { inline = n.SendAsync(&m, 3, 3, 4096, fail, sim.Step{Fn: fail}) }})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !inline {
		t.Fatal("free local copy not delivered inline")
	}
	if got := e.Events(); got != 1 {
		t.Fatalf("events = %d, want 1 (the scheduled callback alone)", got)
	}
	reg := e.Metrics()
	if msgs, bytes := reg.Counter("net.msgs").Value(), reg.Counter("net.bytes").Value(); msgs != 1 || bytes != 4096 {
		t.Fatalf("counted %d msgs / %d bytes, want 1/4096", msgs, bytes)
	}
}

// BenchmarkSendContended measures four remote 4 KiB Sends, one from each of
// four senders that all target one node, so the messages queue on its NIC.
func BenchmarkSendContended(b *testing.B) {
	e, n := netWith(b, testParams())
	for s := 0; s < 4; s++ {
		e.Spawn("send", func(p *sim.Proc) {
			for i := 0; i < b.N; i++ {
				n.Send(p, s, 15, 4096)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
