// Package workload generates synthetic I/O request streams — the workload
// generator behind the benchmark harness and a tool for exploring the
// machine models outside the five applications. A Spec describes a pattern
// (sequential, strided, random, hotspot) and a volume; Requests expands it
// deterministically into a request list; Replay runs the list on a
// simulated machine through any pio interface. Shared runs the one
// shared-file workload under a PFS access mode.
package workload

import (
	"fmt"
	"strconv"

	"pario/internal/core"
	"pario/internal/machine"
	"pario/internal/pfs"
	"pario/internal/pio"
	"pario/internal/sim"
)

// Pattern is the spatial shape of a request stream.
type Pattern int

const (
	// Sequential issues back-to-back requests from offset zero.
	Sequential Pattern = iota
	// Strided issues fixed-size requests separated by a constant gap —
	// the canonical out-of-core column access.
	Strided
	// Random issues requests at uniformly random aligned offsets within
	// the file extent.
	Random
	// Hotspot issues most requests inside a small hot region and the
	// rest uniformly — metadata-and-log-like behaviour.
	Hotspot
)

func (p Pattern) String() string {
	switch p {
	case Sequential:
		return "sequential"
	case Strided:
		return "strided"
	case Random:
		return "random"
	case Hotspot:
		return "hotspot"
	}
	return "?"
}

// Request is one generated operation.
type Request struct {
	Off   int64
	Len   int64
	Write bool
}

// Spec describes a stream.
type Spec struct {
	Pattern Pattern
	// TotalBytes is the volume to move.
	TotalBytes int64
	// RequestBytes is the size of each request.
	RequestBytes int64
	// Stride is the gap between consecutive requests (Strided only).
	Stride int64
	// Extent bounds random offsets (Random/Hotspot); defaults to
	// 4x TotalBytes.
	Extent int64
	// WriteFrac is the fraction of requests that are writes, chosen
	// deterministically from Seed.
	WriteFrac float64
	// HotFrac is the fraction of requests aimed at the hot region
	// (Hotspot only; default 0.9). The hot region is Extent/64 long.
	HotFrac float64
	// Seed drives all pseudo-random choices.
	Seed uint64
}

// Validate reports an unusable spec.
func (s Spec) Validate() error {
	if s.TotalBytes <= 0 || s.RequestBytes <= 0 {
		return fmt.Errorf("workload: need positive volume and request size, got %+v", s)
	}
	if s.WriteFrac < 0 || s.WriteFrac > 1 {
		return fmt.Errorf("workload: write fraction %g out of [0,1]", s.WriteFrac)
	}
	if s.Pattern == Strided && s.Stride < 0 {
		return fmt.Errorf("workload: negative stride")
	}
	if s.Pattern < Sequential || s.Pattern > Hotspot {
		return fmt.Errorf("workload: unknown pattern %d", s.Pattern)
	}
	return nil
}

// Count returns the number of requests the spec expands to.
func (s Spec) Count() int {
	return int((s.TotalBytes + s.RequestBytes - 1) / s.RequestBytes)
}

// Requests expands the spec into its deterministic request list.
func (s Spec) Requests() ([]Request, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	n := s.Count()
	extent := s.Extent
	if extent == 0 {
		extent = 4 * s.TotalBytes
	}
	hotFrac := s.HotFrac
	if hotFrac == 0 {
		hotFrac = 0.9
	}
	hotLen := extent / 64
	if hotLen < s.RequestBytes {
		hotLen = s.RequestBytes
	}
	rng := sim.NewRNG(s.Seed)
	// draw returns an unbiased aligned offset in [lo, lo+span] (span >= 0,
	// both aligned): one slot per RequestBytes, picked with Uint64n so no
	// modulo bias favours the low slots.
	draw := func(lo, span int64) int64 {
		return lo + int64(rng.Uint64n(uint64(span/s.RequestBytes)+1))*s.RequestBytes
	}
	maxOff := extent - s.RequestBytes
	if maxOff < 0 {
		maxOff = 0
	}
	maxOff -= maxOff % s.RequestBytes
	// coldLo is the first aligned offset fully past the hot region — where
	// Hotspot's cold draws start, so they never land inside the hot region
	// and inflate the effective hot fraction.
	coldLo := hotLen + (s.RequestBytes-hotLen%s.RequestBytes)%s.RequestBytes

	reqs := make([]Request, 0, n)
	remaining := s.TotalBytes
	var pos int64
	for i := 0; i < n; i++ {
		size := s.RequestBytes
		if size > remaining {
			size = remaining
		}
		var off int64
		switch s.Pattern {
		case Sequential:
			off = pos
			pos += size
		case Strided:
			off = pos
			pos += size + s.Stride
		case Random:
			if maxOff > 0 {
				off = draw(0, maxOff)
			}
		case Hotspot:
			hotMax := hotLen - size
			if hotMax < 0 {
				hotMax = 0
			}
			hotMax -= hotMax % s.RequestBytes
			if rng.Float64() < hotFrac || coldLo > maxOff {
				// Hot draw — also the fallback when the extent leaves no
				// room outside the hot region.
				if hotMax > 0 {
					off = draw(0, hotMax)
				}
			} else {
				off = draw(coldLo, maxOff-coldLo)
			}
		}
		reqs = append(reqs, Request{
			Off:   off,
			Len:   size,
			Write: rng.Float64() < s.WriteFrac,
		})
		remaining -= size
	}
	return reqs, nil
}

// MaxExtent returns the highest byte any request touches.
func MaxExtent(reqs []Request) int64 {
	var hi int64
	for _, r := range reqs {
		if e := r.Off + r.Len; e > hi {
			hi = e
		}
	}
	return hi
}

// Replay runs the request list on procs ranks of machine m through the
// client interface iface and returns the run's report. Every rank replays
// the whole list against a private file sized to the list's extent.
func Replay(m *machine.Config, iface pio.ClientParams, procs int, reqs []Request) (core.Report, error) {
	extent := MaxExtent(reqs)
	return core.Run(nil, core.Spec{Machine: m, Procs: procs}, func(sys *core.System) (core.Body, error) {
		files := make([]*pfs.File, procs)
		for r := range files {
			f, err := sys.FS.Create("replay."+strconv.Itoa(r), sys.DefaultLayout(), extent)
			if err != nil {
				return nil, err
			}
			files[r] = f
		}
		return func(p *sim.Proc, rank int) {
			h := sys.Client(rank, iface).Open(p, files[rank])
			for _, r := range reqs {
				if r.Write {
					h.WriteAt(p, r.Off, r.Len)
				} else {
					h.ReadAt(p, r.Off, r.Len)
				}
			}
			h.Close(p)
		}, nil
	})
}

// Shared runs the shared-file mode workload of the paper's §5: procs ranks
// open one PFS file through the native interface, rank 0 puts it in mode,
// and each rank then performs ops operations of opBytes — reads under
// M_GLOBAL, appends under every other mode. The report's ExecSec is the
// workload's wall clock. A mode pio.NewSharedFile refuses (an unknown mode,
// or M_RECORD with no positive opBytes) is its error.
func Shared(m *machine.Config, mode pio.Mode, procs, ops int, opBytes int64) (core.Report, error) {
	var sfErr error
	rep, err := core.Run(nil, core.Spec{Machine: m, Procs: procs}, func(sys *core.System) (core.Body, error) {
		f, err := sys.FS.Create("modes.shared", sys.DefaultLayout(), int64(procs*ops)*opBytes)
		if err != nil {
			return nil, err
		}
		handles := make([]*pio.Handle, procs)
		var sf *pio.SharedFile
		return func(p *sim.Proc, rank int) {
			handles[rank] = sys.Client(rank, m.Native).Open(p, f)
			sys.Comm.Barrier(p, rank)
			if rank == 0 {
				sf, sfErr = pio.NewSharedFile(sys.Comm, handles, mode, opBytes)
			}
			sys.Comm.Barrier(p, rank)
			if sfErr != nil {
				return
			}
			for i := 0; i < ops; i++ {
				if mode == pio.ModeGlobal {
					sf.Read(p, rank, opBytes)
				} else {
					sf.Write(p, rank, opBytes)
				}
			}
		}, nil
	})
	if err == nil && sfErr != nil {
		err = sfErr
	}
	return rep, err
}
