package roofline

import (
	"math"

	"pario/internal/machine"
	"pario/internal/pio"
)

// interleaveSeekFrac is the expected head travel, as a fraction of the
// full stroke, between consecutive requests on a disk shared by several
// interleaved streams. Each stream is sequential within its own extent,
// but the head is disturbed by the other streams between visits, so almost
// every request pays close to the minimum seek: the golden metrics show a
// seek on ~99.8% of requests with service times hugging SeekMin. A tiny
// fraction (sqrt-damped by the disk's positioning curve) reproduces that.
const interleaveSeekFrac = 1e-4

// Model is a machine's analytic rate sheet, derived (not re-calibrated)
// from internal/machine. Fields are exported so property tests can probe
// scaling laws — e.g. doubling Spindles must never slow an estimate.
type Model struct {
	Machine  string
	IONodes  int
	Spindles int
	CPUFlops float64

	// Disk: per-byte streaming cost, and per-request positioning cost
	// for interleaved (seek-paying) and single sequential streams.
	DiskSecPerByte float64
	DiskReqSec     float64
	DiskSeqReqSec  float64

	// I/O node.
	ServerSec           float64
	CacheCopySecPerByte float64
	WriteBehind         bool

	// Interconnect.
	LinkSecPerByte    float64
	LinkLatencySec    float64
	MemCopySecPerByte float64

	StripeUnit int64

	cfg *machine.Config
}

// NewModel derives the analytic rate sheet from a machine configuration.
func NewModel(cfg *machine.Config) *Model {
	return &Model{
		Machine:             cfg.Name,
		IONodes:             cfg.NumIO,
		Spindles:            cfg.Spindles(),
		CPUFlops:            cfg.CPUFlops,
		DiskSecPerByte:      cfg.Node.Disk.ByteTime,
		DiskReqSec:          cfg.DiskRequestSec(interleaveSeekFrac),
		DiskSeqReqSec:       cfg.DiskRequestSec(0),
		ServerSec:           cfg.Node.ServerOverhead,
		CacheCopySecPerByte: cfg.Node.CacheCopyByteTime,
		WriteBehind:         cfg.Node.CacheBytes > 0,
		LinkSecPerByte:      cfg.Net.ByteTime,
		LinkLatencySec:      cfg.LinkLatencySec(),
		MemCopySecPerByte:   cfg.Net.MemCopyByteTime,
		StripeUnit:          cfg.DefaultStripeUnit,
		cfg:                 cfg,
	}
}

// Interface resolves a client interface by name on the underlying machine.
func (m *Model) Interface(name string) pio.ClientParams {
	return m.cfg.Interface(name)
}

// computeSec converts per-rank flops to seconds.
func (m *Model) computeSec(flops float64) float64 { return flops / m.CPUFlops }

// barrierSec approximates a barrier: a binomial gather + broadcast, one
// latency per tree level each way.
func (m *Model) barrierSec(procs int) float64 {
	return 2 * float64(ceilLog2(procs)) * m.LinkLatencySec
}

// allreduceSec approximates an allreduce of n bytes per rank.
func (m *Model) allreduceSec(procs int, n int64) float64 {
	rounds := float64(ceilLog2(procs))
	return 2 * rounds * (m.LinkLatencySec + float64(n)*m.LinkSecPerByte)
}

// alltoallvSec approximates a pairwise exchange where each rank sends
// perRank bytes in total, spread over the other ranks.
func (m *Model) alltoallvSec(procs int, perRank float64) float64 {
	if procs < 2 {
		return 0
	}
	return float64(procs-1)*m.LinkLatencySec + perRank*m.LinkSecPerByte
}

// diskRequests is the spindle-level request count for payload bytes
// delivered in contiguous runs of runBytes: the PFS splits each run into
// stripe-unit chunks, one disk access each.
func (m *Model) diskRequests(totalBytes, runBytes float64) float64 {
	if totalBytes <= 0 || runBytes <= 0 {
		return 0
	}
	perRun := math.Ceil(runBytes / float64(m.StripeUnit))
	return totalBytes / runBytes * perRun
}

// load describes one phase's I/O demand; the phase combiner prices it
// against the four ceilings.
type load struct {
	calls        float64 // blocking client data calls per rank
	callSec      float64 // client software per call (incl. explicit seek)
	extraSW      float64 // per-rank metadata: opens, closes, flushes, seeks
	bytesPerRank float64 // payload bytes one rank moves
	ranks        float64 // ranks issuing this load concurrently
	write        bool
	diskReqs     float64 // total spindle requests, all ranks
	sequential   bool    // single stream per spindle: no seeks
	linkBytes    float64 // total bytes crossing the interconnect
	nicBytes     float64 // bytes through the busiest NIC
	overlap      bool    // prefetch: the read chain overlaps compute
	computeSec   float64 // per-rank compute in this phase
	collective   float64 // per-rank barrier/exchange cost, always serial
}

// phase prices one load. The per-rank serial chain (software + protocol
// latency + the service each call blocks on) races the aggregate disk and
// link ceilings; the tallest sets the phase's I/O time. Non-overlapped
// phases add compute serially; prefetched phases overlap it with the
// chain, paying only the await-side copy.
func (m *Model) phase(name string, ld load) Phase {
	if ld.ranks < 1 {
		ld.ranks = 1
	}
	reqSec := m.DiskReqSec
	if ld.sequential {
		reqSec = m.DiskSeqReqSec
	}
	totalBytes := ld.bytesPerRank * ld.ranks

	// Per-rank serial chain.
	sw := ld.calls*ld.callSec + ld.extraSW
	var chain float64
	perRankReqs := ld.diskReqs / ld.ranks
	var chainLat, chainSeek, chainBytes float64
	if ld.write {
		// Writes block through call + send + server + cache copy (the
		// drain is asynchronous); without a cache they wait for the disk.
		chainLat = ld.calls * (m.LinkLatencySec + m.ServerSec)
		svc := m.CacheCopySecPerByte
		if !m.WriteBehind {
			svc = m.DiskSecPerByte
			chainSeek = perRankReqs * reqSec
		}
		chainBytes = ld.bytesPerRank * (m.LinkSecPerByte + svc)
	} else {
		// Reads block through call + request + server + disk + reply.
		chainLat = ld.calls * (2*m.LinkLatencySec + m.ServerSec)
		chainSeek = perRankReqs * reqSec
		chainBytes = ld.bytesPerRank * (m.LinkSecPerByte + m.DiskSecPerByte)
	}
	chain = sw + chainLat + chainSeek + chainBytes

	// Aggregate ceilings.
	diskPos := ld.diskReqs * reqSec / float64(m.Spindles)
	diskXfer := totalBytes * m.DiskSecPerByte / float64(m.Spindles)
	diskAgg := diskPos + diskXfer
	linkAgg := ld.nicBytes * m.LinkSecPerByte

	io := math.Max(chain, math.Max(diskAgg, linkAgg))

	ph := Phase{
		Name:       name,
		ComputeSec: ld.computeSec,
		Overlapped: ld.overlap,
		linkBytes:  ld.linkBytes,
	}
	// Attribute the winning ceiling to the four categories.
	switch {
	case io == chain && chain >= diskAgg && chain >= linkAgg:
		ph.OverheadSec = sw + chainLat
		ph.SeekSec = chainSeek
		ph.DiskSec = ld.bytesPerRank * m.DiskSecPerByte
		if ld.write && m.WriteBehind {
			ph.DiskSec = ld.bytesPerRank * m.CacheCopySecPerByte
		}
		ph.LinkSec = ld.bytesPerRank * m.LinkSecPerByte
	case diskAgg >= linkAgg:
		ph.SeekSec = diskPos
		ph.DiskSec = diskXfer
	default:
		ph.LinkSec = linkAgg
	}
	// Collective exchanges (barriers, alltoallv) are serialized link time.
	ph.LinkSec += ld.collective
	ph.Bound = classify(ph.OverheadSec, ph.SeekSec, ph.DiskSec, ph.LinkSec)

	if ld.overlap {
		// Prefetched reads: compute overlaps the chain; the rank still
		// pays the await-side memory copy per byte.
		ph.ElapsedSec = ld.collective + math.Max(ld.computeSec+ld.bytesPerRank*m.MemCopySecPerByte, io)
	} else {
		ph.ElapsedSec = ld.collective + ld.computeSec + io
	}
	return ph
}

func ceilLog2(n int) int {
	l := 0
	for v := 1; v < n; v <<= 1 {
		l++
	}
	return l
}
