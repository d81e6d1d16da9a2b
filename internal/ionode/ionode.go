// Package ionode models an I/O node: a server CPU in front of one or more
// disks, plus an optional write-behind cache.
//
// Every request pays a per-request server overhead on the node's CPU
// (capacity 1), then is serviced by the disk holding the addressed block.
// With several disks (the SP-2's SSA arrays), blocks are spread across them
// by the caller-supplied disk index, so independent streams can overlap.
//
// The write-behind cache, when enabled, completes a write after the server
// overhead and a memory copy; the disk write drains asynchronously. Dirty
// bytes are bounded: when the cache is full, writers block until the drain
// catches up — so sustained load still sees disk speed, while bursts see
// memory speed. This reproduces the PFS behaviour where write costs are
// lower than read costs (paper Tables 2–3).
package ionode

import (
	"errors"
	"fmt"

	"pario/internal/disk"
	"pario/internal/sim"
	"pario/internal/stats"
)

// ErrCrashed is the cause a request reports while the node is crashed
// (an injected fault). Callers match it with errors.Is through whatever
// wrapping the upper layers add.
var ErrCrashed = errors.New("ionode: node crashed")

// Params configures an I/O node.
type Params struct {
	// ServerOverhead is the per-request CPU cost on the I/O node in
	// seconds (file-system server code path).
	ServerOverhead float64
	// NumDisks is how many drives the node owns (>= 1).
	NumDisks int
	// Disk is the drive cost model, shared by all drives.
	Disk disk.Params
	// CacheBytes bounds dirty write-behind data; zero disables the cache.
	CacheBytes int64
	// CacheCopyByteTime is the per-byte memory-copy cost into the cache.
	CacheCopyByteTime float64
}

// Validate reports obviously broken parameters. A write-behind cache needs
// a positive copy cost: the end of the copy is the event that completes a
// cached write.
func (p Params) Validate() error {
	if p.ServerOverhead < 0 || p.NumDisks < 1 || p.CacheBytes < 0 || p.CacheCopyByteTime < 0 {
		return fmt.Errorf("ionode: invalid params %+v", p)
	}
	if p.CacheBytes > 0 && p.CacheCopyByteTime == 0 {
		return fmt.Errorf("ionode: write-behind cache of %d bytes needs a positive CacheCopyByteTime", p.CacheBytes)
	}
	return p.Disk.Validate()
}

// Node is one I/O node.
type Node struct {
	eng   *sim.Engine
	name  string
	par   Params
	cpu   *sim.Resource
	disks []*disk.Disk

	dirty      int64      // bytes in cache awaiting drain
	spaceWaits []sim.Step // requests waiting for cache space, in arrival order

	requests int64

	// Free lists of pooled asynchronous-path continuations.
	iops   []*iop
	drains []*drainOp

	// crashed makes Access error immediately with ErrCrashed — an injected
	// node failure. mDropped counts those refusals; it is registered lazily
	// on the first crash so fault-free runs carry no fault metrics.
	crashed  bool
	mDropped *stats.Counter

	// Metric handles. All I/O nodes of a run share them by name, so
	// mInflight/mQDepth track the system-wide outstanding-request level —
	// the queue-depth time series of the architecture-balance analysis.
	mRequests  *stats.Counter
	mInflight  *stats.Counter
	mQDepth    *stats.Series
	mWriteback *stats.Counter
}

// New builds an I/O node.
func New(eng *sim.Engine, name string, par Params) (*Node, error) {
	if err := par.Validate(); err != nil {
		return nil, err
	}
	reg := eng.Metrics()
	n := &Node{eng: eng, name: name, par: par,
		cpu:        sim.NewResource(eng, name+".cpu", 1),
		mRequests:  reg.Counter("ionode.requests"),
		mInflight:  reg.Counter("ionode.inflight"),
		mQDepth:    reg.Series("ionode.qdepth"),
		mWriteback: reg.Counter("ionode.writeback_bytes")}
	for i := 0; i < par.NumDisks; i++ {
		d, err := disk.New(eng, fmt.Sprintf("%s.disk%d", name, i), par.Disk)
		if err != nil {
			return nil, err
		}
		n.disks = append(n.disks, d)
	}
	return n, nil
}

// Name returns the node name.
func (n *Node) Name() string { return n.name }

// NumDisks returns the drive count.
func (n *Node) NumDisks() int { return len(n.disks) }

// Disk returns drive i.
func (n *Node) Disk(i int) *disk.Disk { return n.disks[i] }

// CPU exposes the server CPU resource for contention statistics.
func (n *Node) CPU() *sim.Resource { return n.cpu }

// Requests returns the number of Access calls so far.
func (n *Node) Requests() int64 { return n.requests }

// Access services one request against drive diskIdx at the given
// drive-local offset, blocking p until it completes. Reads always wait for
// the disk. Writes go through the write-behind cache when one is
// configured. While the node is crashed the request is refused with
// ErrCrashed, before any accounting — a dead server does not queue work. A
// failed backing disk surfaces as the disk's error. Access is AccessAsync
// with p's wake as both continuations, then EndAccess: a healthy request
// costs exactly the events of the asynchronous path, a failed one one
// zero-delay wake more.
func (n *Node) Access(p *sim.Proc, diskIdx int, off, size int64, write bool) error {
	var err error
	n.AccessAsync(diskIdx, off, size, write, &err, sim.Step{P: p}, sim.Step{P: p})
	p.Suspend()
	n.EndAccess(diskIdx, off, size, write, err)
	return err
}

// Crash marks the node crashed: every subsequent Access errors with
// ErrCrashed until Recover. Requests already inside the node (queued on the
// CPU or a disk) complete normally — the crash refuses new work rather than
// rewriting history.
func (n *Node) Crash() { n.crashed = true }

// Recover clears a crash and restores every backing drive to full health.
func (n *Node) Recover() {
	n.crashed = false
	for _, d := range n.disks {
		d.Restore()
	}
}

// Stall occupies the node's CPU with a phantom request for dur seconds of
// virtual time: real requests queue behind it — a garbage-collection pause
// or RAID rebuild on the server. Like a request it is an event chain: a
// kick-off event claims the CPU, and a release event frees it dur seconds
// after the grant. Must be called with the engine running.
func (n *Node) Stall(dur float64) {
	if dur < 0 {
		panic("ionode: negative stall")
	}
	hold := sim.Step{Fn: func() { n.eng.ScheduleStep(dur, sim.Step{Fn: n.cpu.Release}) }}
	n.eng.ScheduleStep(0, sim.Step{Fn: func() {
		if n.cpu.Claim(hold) {
			hold.Fn()
		}
	}})
}

// DirtyBytes returns the bytes currently held in the write-behind cache.
// TestEventChainDifferential pins it as a run's end state.
func (n *Node) DirtyBytes() int64 { return n.dirty }

// Stats sums the statistics of all drives.
func (n *Node) Stats() disk.Stats {
	var s disk.Stats
	for _, d := range n.disks {
		ds := d.Stats()
		s.Reads += ds.Reads
		s.Writes += ds.Writes
		s.BytesRead += ds.BytesRead
		s.BytesWrite += ds.BytesWrite
		s.Seeks += ds.Seeks
		s.BusySec += ds.BusySec
	}
	return s
}
