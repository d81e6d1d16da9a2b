// Package network models the interconnect of a message-passing machine.
//
// A message from src to dst costs a fixed software/hardware latency, a
// per-hop routing time, and a per-byte transfer time. The transfer portion
// occupies the receiver's network interface (a sim.Resource), so many
// senders targeting one node — the situation at an I/O node, or at the
// funnel node of a Chameleon-style library — queue up and contend, which is
// the central architectural effect the paper studies.
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
	// sendOps is the free list of Send continuations.
	sendOps []*sendOp

	// slow scales every wire cost (latency, hop, byte time) — link
	// degradation injected by a fault plan. 1 = healthy. Node-local memory
	// copies are unaffected: a slow interconnect does not slow memcpy.
	slow float64

	msgs      int64
	bytesSent int64

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

// Send blocks p for the time to move size bytes from node src to node dst.
// The latency and routing portions are uncontended; the bandwidth portion
// holds dst's NIC, so concurrent senders to one destination serialize.
// A node-local send is a memory copy and touches no NIC.
//
// p is resumed once per message. The setup delay and a queued NIC grant run
// as engine callbacks (a sendOp) at exactly the slots where a process
// delaying and acquiring in turn would wake; the bandwidth delay is p's
// wake, after which p releases the NIC.
func (n *Network) Send(p *sim.Proc, src, dst int, size int64) {
	n.AccountMsg(size)
	setup, xfer := n.SendCosts(src, dst, size)
	if src == dst {
		if xfer > 0 {
			p.Delay(xfer)
		}
		return
	}
	o := n.getSendOp()
	o.p, o.nic, o.xfer, o.granted = p, n.NIC(dst), xfer, false
	if setup > 0 {
		n.eng.ScheduleStep(setup, sim.Step{Fn: o.stepFn})
	} else {
		o.step()
	}
	p.Suspend() // the bandwidth delay ends with our wake
	nic := o.nic
	n.putSendOp(o)
	nic.Release()
}

// sendOp is the continuation of one remote Send between its issue and the
// sender's wake. stepFn is bound once at allocation and ops cycle through
// the network's free list, so a steady-state Send allocates nothing.
type sendOp struct {
	n       *Network
	p       *sim.Proc
	nic     *sim.Resource
	xfer    float64
	granted bool // the destination NIC is held: start the bandwidth delay
	stepFn  func()
}

func (n *Network) getSendOp() *sendOp {
	if k := len(n.sendOps); k > 0 {
		o := n.sendOps[k-1]
		n.sendOps = n.sendOps[:k-1]
		return o
	}
	o := &sendOp{n: n}
	o.stepFn = o.step
	return o
}

func (n *Network) putSendOp(o *sendOp) {
	o.p, o.nic = nil, nil
	n.sendOps = append(n.sendOps, o)
}

// step runs when the setup delay ends (contend for the NIC) and again when
// a queued claim is granted; once the NIC is held it schedules the
// bandwidth delay as the sender's wake.
func (o *sendOp) step() {
	if !o.granted {
		o.granted = true
		// A busy destination NIC means this transfer will queue behind
		// another sender — the link-contention stall the paper's I/O-node
		// analysis is about.
		if o.nic.InUse() >= o.nic.Cap() {
			o.n.mStalls.Inc()
		}
		if !o.nic.AcquireFn(o.stepFn) {
			return // granted later: step runs again then
		}
	}
	o.n.eng.ScheduleStep(o.xfer, sim.Step{P: o.p})
}

// AccountMsg records one message of size bytes in the traffic statistics —
// the bookkeeping half of Send, for event-driven senders that drive the
// delays and NIC occupancy themselves (via SendCosts and NIC). It must be
// called once per message, at send time, like Send does.
func (n *Network) AccountMsg(size int64) {
	if size < 0 {
		panic("network: negative message size")
	}
	n.msgs++
	n.bytesSent += size
	n.mMsgs.Inc()
	n.mBytes.Add(size)
}

// SendCosts returns the two timed portions of a send as Send would pay them:
// setup (latency + routing, uncontended) and xfer (the bandwidth portion,
// which must hold dst's NIC). For a node-local message setup is zero and xfer
// is the memory-copy time, which touches no NIC. The current slowdown factor
// is applied, so callers must sample the costs at send time, like Send does.
func (n *Network) SendCosts(src, dst int, size int64) (setup, xfer float64) {
	if src == dst {
		return 0, float64(size) * n.par.MemCopyByteTime
	}
	hops := n.topo.Hops(src, dst)
	setup = n.par.Latency + float64(hops)*n.par.HopTime
	xfer = float64(size) * n.par.ByteTime
	if n.slow != 1 {
		setup *= n.slow
		xfer *= n.slow
	}
	return setup, xfer
}

// NoteStall records one NIC-contention stall, for event-driven senders that
// observe a busy destination NIC before queueing on it (the check Send does
// inline).
func (n *Network) NoteStall() { n.mStalls.Inc() }

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

// Slowdown returns the current wire-cost multiplier (1 = healthy).
func (n *Network) Slowdown() float64 { return n.slow }

// TransferTime returns the uncontended time for a message, for analytic
// estimates and tests.
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

// Messages returns the number of Send calls so far.
func (n *Network) Messages() int64 { return n.msgs }

// BytesSent returns the total payload bytes moved so far.
func (n *Network) BytesSent() int64 { return n.bytesSent }
