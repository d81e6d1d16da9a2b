// Package disk models a single disk drive behind an I/O node.
//
// The service time of a request is
//
//	overhead + seek(head, offset) + size * byteTime
//
// where seek is zero when the request continues where the head left off and
// otherwise grows from SeekMin toward SeekMax with the distance moved. The
// disk serializes requests in FIFO order. This positioning model is what
// makes small non-contiguous requests expensive and large sequential ones
// cheap — the mechanism behind every software optimization evaluated in the
// paper (collective I/O, layout transformation, request aggregation).
package disk

import (
	"errors"
	"fmt"
	"math"

	"pario/internal/sim"
	"pario/internal/stats"
)

// ErrFailed is the cause a request reports while the drive is failed
// (an injected outage). Callers match it with errors.Is through whatever
// wrapping the upper layers add.
var ErrFailed = errors.New("disk: drive failed")

// Params holds the drive cost model.
type Params struct {
	// RequestOverhead is the fixed controller/firmware cost per request in
	// seconds.
	RequestOverhead float64
	// SeekMin is the cost of the shortest non-zero head movement.
	SeekMin float64
	// SeekMax is the cost of a full-stroke movement.
	SeekMax float64
	// FullStroke is the byte distance treated as a full stroke.
	FullStroke int64
	// ByteTime is the streaming transfer time per byte (1/rate).
	ByteTime float64
}

// Validate reports obviously broken parameters.
func (p Params) Validate() error {
	if p.RequestOverhead < 0 || p.SeekMin < 0 || p.SeekMax < p.SeekMin ||
		p.FullStroke <= 0 || p.ByteTime <= 0 {
		return fmt.Errorf("disk: invalid params %+v", p)
	}
	return nil
}

// Stats aggregates what the drive has done.
type Stats struct {
	Reads      int64
	Writes     int64
	BytesRead  int64
	BytesWrite int64
	Seeks      int64 // requests that required head movement
	BusySec    float64
}

// Disk is one drive. All service goes through a capacity-1 resource, so
// concurrent requests queue.
type Disk struct {
	eng  *sim.Engine
	res  *sim.Resource
	name string
	par  Params
	head int64
	st   Stats

	// Fault state. mult scales every service-time component (1 = healthy)
	// and is applied at service time, so the cost model in par is never
	// mutated and Restore recovers the healthy drive exactly. failed makes
	// requests error at service time (an injected outage).
	mult   float64
	failed bool
	// ops is the free list of pooled AccessAsync continuations.
	ops []*op
	// mFailed counts requests refused while failed. It is registered
	// lazily on the first fault call so that fault-free runs carry no
	// fault metrics (the golden outputs stay byte-identical).
	mFailed *stats.Counter

	// Metric handles into the engine's registry; all drives of a run feed
	// the same named metrics, so they aggregate system-wide.
	mSeeks      *stats.Counter
	mBytesRead  *stats.Counter
	mBytesWrite *stats.Counter
	mSvcTime    *stats.Histogram
}

// New returns an idle disk with the head at offset 0.
func New(eng *sim.Engine, name string, par Params) (*Disk, error) {
	if err := par.Validate(); err != nil {
		return nil, err
	}
	reg := eng.Metrics()
	return &Disk{
		eng: eng, res: sim.NewResource(eng, name, 1), name: name, par: par,
		mult:        1,
		mSeeks:      reg.Counter("disk.seeks"),
		mBytesRead:  reg.Counter("disk.bytes_read"),
		mBytesWrite: reg.Counter("disk.bytes_written"),
		mSvcTime:    reg.Histogram("disk.svc_time", "us"),
	}, nil
}

// seekTime returns the head-movement cost from the current position to
// off. Seek time grows with the square root of the distance — the standard
// disk model shape, where settle time dominates short seeks and arm
// acceleration amortizes over long ones — saturating at SeekMax beyond a
// full stroke.
func (d *Disk) seekTime(off int64) float64 {
	if off == d.head {
		return 0
	}
	dist := off - d.head
	if dist < 0 {
		dist = -dist
	}
	frac := float64(dist) / float64(d.par.FullStroke)
	if frac > 1 {
		frac = 1
	}
	return d.par.SeekMin + (d.par.SeekMax-d.par.SeekMin)*math.Sqrt(frac)
}

// ServiceTime returns the uncontended service time of a request starting
// from the current head position, without performing it. The fault tests
// (TestInstallWindows) read degrade factors against it.
func (d *Disk) ServiceTime(off, size int64) float64 {
	return d.par.RequestOverhead + d.seekTime(off) + float64(size)*d.par.ByteTime
}

// Access performs one request, blocking p for queueing plus service time.
// It updates the head to the end of the accessed range. While the drive is
// failed (SetFailed/an injected outage) the request reaches the head of the
// queue and then errors with ErrFailed without consuming service time —
// fail-stop, not fail-slow. It is AccessAsync with p's wake as both
// continuations: a healthy request costs exactly the events of the
// asynchronous path, a failed one one zero-delay wake more.
func (d *Disk) Access(p *sim.Proc, off, size int64, write bool) error {
	var err error
	d.AccessAsync(off, size, write, &err, sim.Step{P: p}, sim.Step{P: p})
	p.Suspend()
	if err != nil {
		return err
	}
	d.FinishAccess()
	return nil
}

// SetDegrade sets the absolute service-time multiplier — fault injection
// for a failing or throttled spindle. The factor applies to every component
// (overhead, seek, transfer) of requests that reach service while it is in
// effect; requests already queued are unaffected until then. Factors below
// 1 model an upgrade. Repeated calls do not compound: SetDegrade(8) twice
// is still 8x.
func (d *Disk) SetDegrade(factor float64) {
	if factor <= 0 {
		panic("disk: degrade factor must be positive")
	}
	d.mult = factor
}

// Restore returns the drive to full health: multiplier 1, not failed.
func (d *Disk) Restore() {
	d.mult = 1
	d.failed = false
}

// SetFailed marks the drive failed (requests error with ErrFailed) or
// clears a previous failure without touching the degrade multiplier.
func (d *Disk) SetFailed(failed bool) { d.failed = failed }

// Failed reports whether the drive is currently failed.
func (d *Disk) Failed() bool { return d.failed }

// Stall occupies the drive with a phantom request for dur seconds of
// virtual time: real requests queue behind it exactly as behind a slow
// sibling. Like a request it is an event chain: a kick-off event claims the
// drive, and a release event frees it dur seconds after the grant. Must be
// called with the engine running (from a process or a scheduled event).
func (d *Disk) Stall(dur float64) {
	if dur < 0 {
		panic("disk: negative stall")
	}
	hold := sim.Step{Fn: func() { d.eng.ScheduleStep(dur, sim.Step{Fn: d.res.Release}) }}
	d.eng.ScheduleStep(0, sim.Step{Fn: func() {
		if d.res.Claim(hold) {
			hold.Fn()
		}
	}})
}

// Head returns the current head byte position. TestEventChainDifferential
// pins it as a run's end state.
func (d *Disk) Head() int64 { return d.head }

// Stats returns a copy of the accumulated statistics.
func (d *Disk) Stats() Stats { return d.st }

// Queue exposes the underlying resource. core's checkIdle reads it to
// prove an aborted run left no drive held.
func (d *Disk) Queue() *sim.Resource { return d.res }
