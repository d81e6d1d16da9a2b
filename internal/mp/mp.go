// Package mp is a small message-passing layer (an MPI work-alike) over the
// simulated interconnect: ranks mapped onto compute nodes, matched
// point-to-point send/receive, and the collectives the I/O libraries need
// (barrier, broadcast, allreduce, all-to-all-v). Collectives are implemented
// the way MPI implementations build them — binomial trees and pairwise
// exchanges of real messages — so their cost responds to the machine's
// latency, bandwidth and topology.
package mp

import (
	"fmt"

	"pario/internal/network"
	"pario/internal/sim"
)

// key matches a receive against arrivals.
type key struct {
	src int
	tag int
}

// Comm is a communicator: a set of ranks with private mailboxes.
type Comm struct {
	eng    *sim.Engine
	net    *network.Network
	nodeOf []int // topology node index per rank

	inbox   []map[key][]int64   // delivered message sizes, per (src, tag)
	waiting []map[key]*sim.Proc // the rank parked in Recv, per (src, tag)
}

// New builds a communicator of size ranks, mapping rank i to the i'th
// compute node of the network's topology.
func New(eng *sim.Engine, net *network.Network, ranks int) (*Comm, error) {
	topo := net.Topology()
	if ranks < 1 || ranks > topo.NumCompute() {
		return nil, fmt.Errorf("mp: %d ranks exceed %d compute nodes", ranks, topo.NumCompute())
	}
	c := &Comm{eng: eng, net: net}
	for i := 0; i < ranks; i++ {
		c.nodeOf = append(c.nodeOf, topo.ComputeNode(i))
		c.inbox = append(c.inbox, make(map[key][]int64))
		c.waiting = append(c.waiting, make(map[key]*sim.Proc))
	}
	return c, nil
}

// Size returns the number of ranks.
func (c *Comm) Size() int { return len(c.nodeOf) }

// NodeOf returns the topology node hosting rank r.
func (c *Comm) NodeOf(r int) int { return c.nodeOf[r] }

// Network returns the underlying interconnect.
func (c *Comm) Network() *network.Network { return c.net }

func (c *Comm) check(r int) {
	if r < 0 || r >= len(c.nodeOf) {
		panic(fmt.Sprintf("mp: rank %d out of range [0,%d)", r, len(c.nodeOf)))
	}
}

// Send transfers size bytes from rank `from` to rank `to` with the given
// tag. The caller must be the process driving rank `from`. The send is
// eager: it completes once the transfer is on the wire and delivered into
// the destination mailbox; no matching receive is required first.
func (c *Comm) Send(p *sim.Proc, from, to, tag int, size int64) {
	c.check(from)
	c.check(to)
	c.net.Send(p, c.nodeOf[from], c.nodeOf[to], size)
	k := key{src: from, tag: tag}
	c.inbox[to][k] = append(c.inbox[to][k], size)
	if w, ok := c.waiting[to][k]; ok {
		delete(c.waiting[to], k)
		c.eng.ScheduleStep(0, sim.Step{P: w})
	}
}

// Recv blocks rank `at` until a message from rank `from` with the given tag
// arrives, and returns its size. Messages from one (src, tag) pair are
// delivered in send order. The caller must be the process driving rank
// `at`: it parks in Suspend with its own entry in the rank's waiting table,
// and the matching Send schedules its wake at the delivery instant.
func (c *Comm) Recv(p *sim.Proc, at, from, tag int) int64 {
	c.check(at)
	c.check(from)
	k := key{src: from, tag: tag}
	for len(c.inbox[at][k]) == 0 {
		if w, ok := c.waiting[at][k]; ok && w != p {
			panic(fmt.Sprintf("mp: rank %d has two receives pending from %d with tag %d", at, from, tag))
		}
		c.waiting[at][k] = p
		p.Suspend()
	}
	// An emptied mailbox keeps its array, so the pair's next Send reuses it.
	q := c.inbox[at][k]
	size := q[0]
	if len(q) == 1 {
		c.inbox[at][k] = q[:0]
	} else {
		c.inbox[at][k] = q[1:]
	}
	return size
}

// ctrlBytes is the payload of a pure-synchronization message.
const ctrlBytes = 8

// tag space: user tags must be >= 0; collectives use negative tags so they
// never collide with application traffic.
const (
	tagBarrierUp = -1 - iota
	tagBarrierDown
	tagBcast
	tagAlltoall
	tagReduceUp
)

// Barrier synchronizes all ranks with an up-tree gather and a down-tree
// release (binomial trees rooted at 0). Every rank must call it.
func (c *Comm) Barrier(p *sim.Proc, rank int) {
	c.treeUp(p, rank, tagBarrierUp, ctrlBytes)
	c.treeDown(p, rank, tagBarrierDown, ctrlBytes)
}

// treeUp sends a combine message toward rank 0 after hearing from all
// children in a binomial tree.
func (c *Comm) treeUp(p *sim.Proc, rank, tag int, size int64) {
	n := c.Size()
	for step := 1; step < n; step <<= 1 {
		if rank&step != 0 {
			c.Send(p, rank, rank-step, tag, size)
			return
		}
		if rank+step < n {
			c.Recv(p, rank, rank+step, tag)
		}
	}
}

// treeDown propagates a release from rank 0 down the binomial tree.
func (c *Comm) treeDown(p *sim.Proc, rank, tag int, size int64) {
	n := c.Size()
	// Find the highest step at which this rank receives.
	mask := 1
	for mask < n {
		mask <<= 1
	}
	mask >>= 1
	if rank != 0 {
		// Receive from parent: the parent differs in the lowest set bit.
		low := rank & (-rank)
		c.Recv(p, rank, rank-low, tag)
		mask = low >> 1
	}
	for step := mask; step >= 1; step >>= 1 {
		if rank+step < n && rank&(step-1) == 0 && rank&step == 0 {
			c.Send(p, rank, rank+step, tag, size)
		}
	}
}

// Bcast sends size bytes from root to every rank along a binomial tree.
// Every rank must call it.
func (c *Comm) Bcast(p *sim.Proc, rank, root int, size int64) {
	n := c.Size()
	// Rotate so the root is virtual rank 0.
	vr := (rank - root + n) % n
	abs := func(v int) int { return (v + root) % n }
	if vr != 0 {
		low := vr & (-vr)
		c.Recv(p, rank, abs(vr-low), tagBcast)
	}
	top := 1
	for top < n {
		top <<= 1
	}
	start := top >> 1
	if vr != 0 {
		start = (vr & (-vr)) >> 1
	}
	for step := start; step >= 1; step >>= 1 {
		if vr+step < n && vr&(step-1) == 0 {
			c.Send(p, rank, abs(vr+step), tagBcast, size)
		}
	}
}

// Alltoallv exchanges sizes[r] bytes from this rank to every rank r (and
// symmetrically receives what every rank holds for this one). sizes is
// indexed by destination rank; sizes[rank] is a local copy and costs only
// memory bandwidth. Every rank must call it with a slice of length Size.
// The pairwise schedule (step k: exchange with rank^k or (rank±k) mod n)
// avoids hotspots.
func (c *Comm) Alltoallv(p *sim.Proc, rank int, sizes []int64) {
	n := c.Size()
	if len(sizes) != n {
		panic(fmt.Sprintf("mp: Alltoallv sizes len %d != ranks %d", len(sizes), n))
	}
	// Local share.
	if sizes[rank] > 0 {
		c.net.Send(p, c.nodeOf[rank], c.nodeOf[rank], sizes[rank])
	}
	for step := 1; step < n; step++ {
		sendTo := (rank + step) % n
		recvFrom := (rank - step + n) % n
		// A peer with no data still gets a header, so the pairwise
		// schedule stays in lockstep and receives always match.
		sz := sizes[sendTo]
		if sz < ctrlBytes {
			sz = ctrlBytes
		}
		c.Send(p, rank, sendTo, tagAlltoall, sz)
		c.Recv(p, rank, recvFrom, tagAlltoall)
	}
}

// Allreduce combines size bytes from every rank at rank 0 along a binomial
// tree, then broadcasts the result (cost model only; no values are
// computed). Every rank must call it.
func (c *Comm) Allreduce(p *sim.Proc, rank int, size int64) {
	c.treeUp(p, rank, tagReduceUp, size)
	c.Bcast(p, rank, 0, size)
}
