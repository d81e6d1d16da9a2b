package mp

import (
	"testing"

	"pario/internal/sim"
)

// pingPong spawns two ranks exchanging k round trips of size-byte messages.
func pingPong(t testing.TB, k int, size int64) *sim.Engine {
	e, c := newComm(t, 2)
	for r := 0; r < 2; r++ {
		r := r
		e.Spawn("rank", func(p *sim.Proc) {
			for i := 0; i < k; i++ {
				if r == 0 {
					c.Send(p, 0, 1, 0, size)
					c.Recv(p, 0, 1, 0)
				} else {
					c.Recv(p, 1, 0, 0)
					c.Send(p, 1, 0, 0, size)
				}
			}
		})
	}
	return e
}

// fanIn spawns senders ranks that each send k size-byte messages to rank 0
// at once, so their setup delays interleave and they queue on rank 0's NIC.
func fanIn(t testing.TB, senders, k int, size int64) *sim.Engine {
	e, c := newComm(t, senders+1)
	e.Spawn("root", func(p *sim.Proc) {
		for i := 0; i < k; i++ {
			for r := 1; r <= senders; r++ {
				c.Recv(p, 0, r, 0)
			}
		}
	})
	for r := 1; r <= senders; r++ {
		r := r
		e.Spawn("sender", func(p *sim.Proc) {
			for i := 0; i < k; i++ {
				c.Send(p, r, 0, 0, size)
			}
		})
	}
	return e
}

// A Send resumes its sender once: the setup delay and the NIC grant are
// callbacks and the bandwidth delay is the sender's wake.
func TestSendResumesOncePerMessage(t *testing.T) {
	const senders, k = 3, 20
	e := fanIn(t, senders, k, 4096)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Each message resumes its sender once and the root at most once;
	// plus one activation per process.
	if got, limit := e.Resumes(), uint64(2*senders*k+senders+1); got > limit {
		t.Fatalf("%d resumes for %d messages, want <= %d", got, senders*k, limit)
	}
}

// A warmed Send/Recv round trip allocates nothing: an emptied mailbox
// keeps its array for the pair's next message.
func TestSendRecvAllocationFree(t *testing.T) {
	const warm, runs = 8, 200
	e, c := newComm(t, 2)
	checked := false
	e.Spawn("rank0", func(p *sim.Proc) {
		roundTrip := func() {
			c.Send(p, 0, 1, 0, 4096)
			c.Recv(p, 0, 1, 0)
		}
		for i := 0; i < warm; i++ {
			roundTrip()
		}
		if avg := testing.AllocsPerRun(runs, roundTrip); avg != 0 {
			t.Errorf("Send/Recv round trip allocates %g/op on steady state, want 0", avg)
		}
		checked = true
	})
	e.Spawn("rank1", func(p *sim.Proc) {
		for i := 0; i < warm+runs+1; i++ { // AllocsPerRun adds one warm-up call
			c.Recv(p, 1, 0, 0)
			c.Send(p, 1, 0, 0, 4096)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !checked {
		t.Fatal("allocation check did not run")
	}
}

// BenchmarkSendRecv measures one ping-pong round trip between two ranks:
// two 4 KiB messages, each with its setup delay, NIC hold and delivery.
func BenchmarkSendRecv(b *testing.B) {
	e := pingPong(b, b.N, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
