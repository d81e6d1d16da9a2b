// Package network models the interconnect of a message-passing machine.
//
// A message from src to dst costs a fixed software/hardware latency, a
// per-hop routing time, and a per-byte transfer time. The transfer portion
// occupies the receiver's network interface (a sim.Resource), so many
// senders targeting one node — the situation at an I/O node, or at the
// funnel node of a Chameleon-style library — queue up and contend, which is
// the central architectural effect the paper studies.
//
// Every simulated message goes through one event-driven send, SendAsync:
// mp's messages by way of the blocking Send, and both legs of a file-system
// request (pfs's request and its data reply) directly, so exchange traffic
// and file-system traffic are priced by one model.
package network

import (
	"fmt"
	"strconv"

	"pario/internal/sim"
	"pario/internal/stats"
	"pario/internal/topology"
)

// Params holds the interconnect cost model.
type Params struct {
	// Latency is the fixed per-message cost in seconds (software stack +
	// wire setup).
	Latency float64
	// ByteTime is the per-byte transfer time in seconds (1/bandwidth).
	ByteTime float64
	// HopTime is the per-hop routing delay in seconds.
	HopTime float64
	// MemCopyByteTime is the per-byte cost of a node-local transfer
	// (src == dst), modeling a memory copy.
	MemCopyByteTime float64
}

// Validate reports obviously broken parameters.
func (p Params) Validate() error {
	if p.Latency < 0 || p.ByteTime <= 0 || p.HopTime < 0 || p.MemCopyByteTime < 0 {
		return fmt.Errorf("network: invalid params %+v", p)
	}
	return nil
}

// Network is the interconnect instance for one machine.
type Network struct {
	eng  *sim.Engine
	topo *topology.Topology
	par  Params
	// nics holds each node's interface, built on first use by NIC: a point
	// touches at most its compute and I/O nodes, a small share of a large
	// mesh.
	nics []*sim.Resource
	// msgs is the free list of Send's messages.
	msgs []*Msg

	// slow scales every wire cost (latency, hop, byte time) — link
	// degradation injected by a fault plan. 1 = healthy. Node-local memory
	// copies are unaffected: a slow interconnect does not slow memcpy.
	slow float64

	mMsgs   *stats.Counter
	mBytes  *stats.Counter
	mStalls *stats.Counter
}

// New builds the interconnect for the given topology.
func New(eng *sim.Engine, topo *topology.Topology, par Params) (*Network, error) {
	if err := par.Validate(); err != nil {
		return nil, err
	}
	reg := eng.Metrics()
	n := &Network{eng: eng, topo: topo, par: par, slow: 1,
		mMsgs:   reg.Counter("net.msgs"),
		mBytes:  reg.Counter("net.bytes"),
		mStalls: reg.Counter("net.stalls"),
	}
	n.nics = make([]*sim.Resource, topo.NumNodes())
	return n, nil
}

// Topology returns the underlying topology.
func (n *Network) Topology() *topology.Topology { return n.topo }

// Params returns the cost model.
func (n *Network) Params() Params { return n.par }

// Send blocks p for the time to move size bytes from node src to node dst:
// SendAsync with p's wake as the delivery, p's Suspend, and the message's
// End. p is resumed once per message.
func (n *Network) Send(p *sim.Proc, src, dst int, size int64) {
	m := n.getMsg()
	if !n.SendAsync(m, src, dst, size, m.step, sim.Step{P: p}) {
		p.Suspend() // the message's delivery is our wake
		m.End()
	}
	n.msgs = append(n.msgs, m)
}

// getMsg returns a message for Send from the network's free list. Send is
// its message's only sender, so the step is the message's own Advance,
// bound once at allocation: a steady-state Send allocates nothing.
func (n *Network) getMsg() *Msg {
	if k := len(n.msgs); k > 0 {
		m := n.msgs[k-1]
		n.msgs = n.msgs[:k-1]
		return m
	}
	m := &Msg{}
	m.step = func() { m.Advance() }
	return m
}

// Msg is one message in flight, from SendAsync until it is delivered and
// ended. Its state lives in the sender, which embeds it; a Msg carries one
// message at a time, and its zero value is ready for the first.
type Msg struct {
	n       *Network
	nic     *sim.Resource // destination NIC, held from its grant until End
	xfer    float64       // bandwidth delay, sampled at send time
	step    func()        // the sender's callback for intermediate events
	deliver sim.Step
	state   int8
}

// Msg states: what the message's next intermediate event does.
const (
	msgIdle  int8 = iota // no event pending: the sender's own
	msgSetup             // setup paid: contend for the destination NIC
	msgGrant             // NIC granted after queueing: start the bandwidth delay
	msgWire              // bandwidth delay paid: release the NIC, then deliver
)

// SendAsync sends size bytes from node src to node dst as engine events and
// returns at once, so it may be called from an event callback. It is the one
// model of a message: Send and every file-system request and reply go
// through it.
//
// The latency and routing portions are uncontended; the bandwidth portion
// holds dst's NIC, so concurrent senders to one destination serialize, and
// a sender that finds the NIC busy counts a net.stalls. A node-local send
// is a memory copy and touches no NIC.
//
// The message's intermediate events — the end of the setup delay, a queued
// NIC grant, the end of a callback delivery's bandwidth delay — run step,
// which must call m.Advance before anything else. The last event is deliver:
//   - a process delivery (deliver.P) is the wake; the woken process ends the
//     message with End, which releases the NIC;
//   - a callback delivery (deliver.Fn) runs in Advance, after the message
//     has released the NIC, in the same event.
//
// A zero-cost local copy schedules nothing: SendAsync reports true, the
// message is delivered inline, and deliver does not run.
func (n *Network) SendAsync(m *Msg, src, dst int, size int64, step func(), deliver sim.Step) (inline bool) {
	if size < 0 {
		panic("network: negative message size")
	}
	n.mMsgs.Inc()
	n.mBytes.Add(size)
	if src == dst {
		xfer := float64(size) * n.par.MemCopyByteTime
		if xfer == 0 {
			return true
		}
		n.eng.ScheduleStep(xfer, deliver)
		return false
	}
	hops := n.topo.Hops(src, dst)
	setup := n.par.Latency + float64(hops)*n.par.HopTime
	xfer := float64(size) * n.par.ByteTime
	if n.slow != 1 {
		setup *= n.slow
		xfer *= n.slow
	}
	m.n, m.nic, m.xfer, m.step, m.deliver = n, n.NIC(dst), xfer, step, deliver
	if setup > 0 {
		m.state = msgSetup
		n.eng.ScheduleStep(setup, sim.Step{Fn: step})
		return false
	}
	m.contend()
	return false
}

// Advance runs the message's part of an event of the sender's step callback
// and reports whether there was one; false means the event is the sender's
// own.
func (m *Msg) Advance() bool {
	switch m.state {
	case msgSetup:
		m.contend()
	case msgGrant:
		m.transmit()
	case msgWire:
		m.state = msgIdle
		m.End()
		m.deliver.Fn()
	default:
		return false
	}
	return true
}

// contend claims the destination NIC. A busy NIC means this transfer will
// queue behind another sender — the link-contention stall the paper's
// I/O-node analysis is about.
func (m *Msg) contend() {
	if m.nic.InUse() >= m.nic.Cap() {
		m.n.mStalls.Inc()
	}
	m.state = msgGrant
	if m.nic.Claim(sim.Step{Fn: m.step}) {
		m.transmit()
	}
}

// transmit starts the bandwidth delay on the held NIC. Its end is the
// process delivery itself, or one more step event for a callback delivery.
func (m *Msg) transmit() {
	if m.deliver.P != nil {
		m.state = msgIdle
		m.n.eng.ScheduleStep(m.xfer, m.deliver)
		return
	}
	m.state = msgWire
	m.n.eng.ScheduleStep(m.xfer, sim.Step{Fn: m.step})
}

// End ends a delivered message, releasing the NIC it still holds: the
// epilogue of a process delivery. Ending a message that holds no NIC — a
// local copy, a callback delivery, one already ended — does nothing.
func (m *Msg) End() {
	if nic := m.nic; nic != nil {
		m.nic = nil
		nic.Release()
	}
}

// SetSlowdown sets the absolute wire-cost multiplier — fault injection for
// a congested or flapping interconnect. 1 restores full speed. Transfers
// already in progress are unaffected; the factor applies from the next
// Send. Node-local memory copies never scale.
func (n *Network) SetSlowdown(factor float64) {
	if factor <= 0 {
		panic("network: slowdown factor must be positive")
	}
	n.slow = factor
}

// TransferTime returns the uncontended time for a message, for analytic
// estimates and as the closed-form oracle of
// TestSendUncontendedMatchesTransferTime.
func (n *Network) TransferTime(src, dst int, size int64) float64 {
	if src == dst {
		return float64(size) * n.par.MemCopyByteTime
	}
	hops := n.topo.Hops(src, dst)
	t := n.par.Latency + float64(hops)*n.par.HopTime + float64(size)*n.par.ByteTime
	if n.slow != 1 {
		t *= n.slow
	}
	return t
}

// NIC returns a node's interface resource, building it on first use. Every
// call for one node returns the same resource.
func (n *Network) NIC(node int) *sim.Resource {
	if r := n.nics[node]; r != nil {
		return r
	}
	r := sim.NewResource(n.eng, "nic"+strconv.Itoa(node), 1)
	n.nics[node] = r
	return r
}
