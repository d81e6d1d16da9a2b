// Package roofline is the analytic counterpart of the simulation kernel: a
// closed-form estimator that predicts a run's elapsed virtual time, the
// bytes it moves through each layer of the I/O stack, and the ceiling that
// binds it — without spawning a single simulated process. The estimate is
// a roofline in the Williams et al. sense: each phase of an application is
// priced against four ceilings
//
//	overhead — the per-call client software path (interface call costs,
//	           explicit seeks, per-request protocol latency),
//	seek     — disk positioning (request overhead + expected seek) summed
//	           over the request stream,
//	disk_bw  — byte streaming at the aggregate spindle rate,
//	link_bw  — byte streaming through the busiest NIC,
//
// and the tallest ceiling on the critical path names the bottleneck. The
// per-app op/byte counts mirror internal/apps (same exported constants,
// same phase structure, same optimization semantics: prefetch overlaps the
// read chain with compute, collective buffering trades many small requests
// for an exchange plus one conforming request per rank, write-behind lets
// clients run at cache-copy speed while the drain is billed to the disk
// ceiling). Fidelity is enforced by the cross-validation suite in this
// package, which compares every estimate against the golden-tested
// simulation within committed tolerance bands.
package roofline

import (
	"errors"
	"fmt"

	"pario/internal/apps/btio"
	"pario/internal/apps/scf"
)

// ErrUnsupported marks requests outside the analytic model's domain. The
// only such requests today carry fault plans: faulted runs depend on where
// in virtual time an injection lands, which no closed form can answer.
var ErrUnsupported = errors.New("roofline: fault plans are not estimable; use exact mode")

// Bottleneck names the binding ceiling of a run's I/O path. For overlapped
// (prefetched) phases the I/O ceilings are still compared against each
// other: the bottleneck is the layer that would gate the run if compute
// shrank, which is the regime question the paper's figures answer.
type Bottleneck string

const (
	SeekBound     Bottleneck = "seek_bound"
	DiskBWBound   Bottleneck = "disk_bw_bound"
	LinkBWBound   Bottleneck = "link_bw_bound"
	OverheadBound Bottleneck = "overhead_bound"
)

// Input is the resolved request the estimator prices: the app parameters
// internal/request resolves a canonical request to (per-app defaults
// applied, the deck, version and class resolved to the app packages' own
// values with the request's sizes, irrelevant fields zero). The machine is
// resolved alongside it and handed to NewModel.
type Input struct {
	App       string
	Procs     int
	Opt       bool
	Input     scf.Input
	Version   scf.Version
	CachedPct int
	Class     btio.Class
	// MemoryKB is scf11's per-process I/O buffer.
	MemoryKB int64
	// N is the fft matrix order or the ast grid edge.
	N int64
	// BufferBytes is fft's in-core buffer.
	BufferBytes int64
	// Arrays and Dumps size an ast dump series.
	Arrays, Dumps int
}

// Phase is one priced application phase.
type Phase struct {
	Name       string  `json:"name"`
	ElapsedSec float64 `json:"elapsed_sec"`
	ComputeSec float64 `json:"compute_sec"`
	// Ceiling attribution of the phase's I/O critical path.
	OverheadSec float64    `json:"overhead_sec"`
	SeekSec     float64    `json:"seek_sec"`
	DiskSec     float64    `json:"disk_sec"`
	LinkSec     float64    `json:"link_sec"`
	Bound       Bottleneck `json:"bound"`
	Overlapped  bool       `json:"overlapped,omitempty"`

	linkBytes float64 // total interconnect bytes this phase moved
}

// linkInput reports the phase's total interconnect traffic, for the
// per-layer byte accounting.
func (p Phase) linkInput() float64 { return p.linkBytes }

// Estimate is the full prediction for one request.
type Estimate struct {
	App     string `json:"app"`
	Machine string `json:"machine"`
	Procs   int    `json:"procs"`
	IONodes int    `json:"ionodes"`

	ElapsedSec float64 `json:"elapsed_sec"`
	ComputeSec float64 `json:"compute_sec"`
	IOSec      float64 `json:"io_sec"`

	// Summed ceiling attribution across phases.
	OverheadSec float64    `json:"overhead_sec"`
	SeekSec     float64    `json:"seek_sec"`
	DiskSec     float64    `json:"disk_sec"`
	LinkSec     float64    `json:"link_sec"`
	Bottleneck  Bottleneck `json:"bottleneck"`

	// Predicted bytes moved per layer: application payload issued by
	// clients, bytes crossing the interconnect (payload plus request
	// messages and collective exchanges), and bytes through the spindles.
	ClientBytes int64 `json:"client_bytes"`
	LinkBytes   int64 `json:"link_bytes"`
	DiskBytes   int64 `json:"disk_bytes"`

	BandwidthMBs float64 `json:"bandwidth_mbs"`
	Phases       []Phase `json:"phases"`
}

// Estimate prices a resolved request against this model. The model's
// machine must be the one the request resolves to (request.Estimate
// guarantees that; tests may deliberately mismatch to probe scaling).
func (m *Model) Estimate(in Input) (*Estimate, error) {
	if in.Procs < 1 {
		return nil, fmt.Errorf("roofline: procs %d out of range", in.Procs)
	}
	var phases []Phase
	var clientBytes, linkBytes, diskBytes int64
	var err error
	switch in.App {
	case "scf11":
		phases, clientBytes, linkBytes, diskBytes, err = m.scf11(in)
	case "scf30":
		phases, clientBytes, linkBytes, diskBytes, err = m.scf30(in)
	case "fft":
		phases, clientBytes, linkBytes, diskBytes, err = m.fft(in)
	case "btio":
		phases, clientBytes, linkBytes, diskBytes, err = m.btio(in)
	case "ast":
		phases, clientBytes, linkBytes, diskBytes, err = m.ast(in)
	default:
		return nil, fmt.Errorf("roofline: unknown app %q", in.App)
	}
	if err != nil {
		return nil, err
	}

	est := &Estimate{
		App:         in.App,
		Machine:     m.Machine,
		Procs:       in.Procs,
		IONodes:     m.IONodes,
		ClientBytes: clientBytes,
		LinkBytes:   linkBytes,
		DiskBytes:   diskBytes,
		Phases:      phases,
	}
	for _, ph := range phases {
		est.ElapsedSec += ph.ElapsedSec
		est.ComputeSec += ph.ComputeSec
		est.OverheadSec += ph.OverheadSec
		est.SeekSec += ph.SeekSec
		est.DiskSec += ph.DiskSec
		est.LinkSec += ph.LinkSec
	}
	est.IOSec = est.ElapsedSec - est.ComputeSec
	if est.IOSec < 0 {
		est.IOSec = 0
	}
	est.Bottleneck = classify(est.OverheadSec, est.SeekSec, est.DiskSec, est.LinkSec)
	if est.ElapsedSec > 0 {
		est.BandwidthMBs = float64(clientBytes) / 1e6 / est.ElapsedSec
	}
	return est, nil
}

// classify picks the tallest attributed ceiling. Ties break in a fixed
// order (disk_bw, seek, overhead, link_bw) so estimates are deterministic.
func classify(overhead, seek, diskBW, linkBW float64) Bottleneck {
	best, t := DiskBWBound, diskBW
	if seek > t {
		best, t = SeekBound, seek
	}
	if overhead > t {
		best, t = OverheadBound, overhead
	}
	if linkBW > t {
		best = LinkBWBound
	}
	return best
}
