package pio

import (
	"fmt"

	"pario/internal/mp"
	"pario/internal/sim"
)

// PFS (and PIOFS) expose several shared-file access modes, which the paper
// singles out as the reason "the I/O software is not easy to use and is not
// portable at all" (§5). They differ in how the file pointer is shared and
// how much coordination each operation implies — and therefore in cost.
// This file models the five PFS modes from the Paragon PFS specification
// (Rullman, reference [9] of the paper).

// Mode is a PFS shared-file access mode.
type Mode int

const (
	// ModeUnix (M_UNIX) gives every node its own file pointer; operations
	// are fully independent.
	ModeUnix Mode = iota
	// ModeLog (M_LOG) shares one file pointer; each operation atomically
	// claims the current position and appends, serializing through the
	// pointer token.
	ModeLog
	// ModeSync (M_SYNC) keeps all nodes in lockstep: every node must
	// perform the same-size operation, the file is accessed in rank
	// order, and the call returns when all nodes' pieces are done.
	ModeSync
	// ModeRecord (M_RECORD) interleaves fixed-size records round-robin by
	// rank: node i's k'th operation lands at record k*P+i. No runtime
	// coordination is needed.
	ModeRecord
	// ModeGlobal (M_GLOBAL) has all nodes read the same data: one node
	// performs the file read and the data is broadcast.
	ModeGlobal
)

func (m Mode) String() string {
	switch m {
	case ModeUnix:
		return "M_UNIX"
	case ModeLog:
		return "M_LOG"
	case ModeSync:
		return "M_SYNC"
	case ModeRecord:
		return "M_RECORD"
	case ModeGlobal:
		return "M_GLOBAL"
	}
	return "?"
}

// SharedFile is a file opened by all ranks in one PFS access mode.
type SharedFile struct {
	comm    *mp.Comm
	handles []*Handle
	mode    Mode
	record  int64 // M_RECORD record size

	shared  int64         // shared pointer (M_LOG, M_SYNC, M_GLOBAL)
	token   *sim.Resource // M_LOG pointer token
	opCount []int64       // per-rank operation count (M_RECORD)
}

// NewSharedFile opens a shared file in the given mode over per-rank
// handles (indexed by rank, all on the same file). recordSize is required
// for ModeRecord and ignored otherwise.
func NewSharedFile(comm *mp.Comm, handles []*Handle, mode Mode, recordSize int64) (*SharedFile, error) {
	if comm.Size() != len(handles) {
		return nil, fmt.Errorf("pio: %d handles for %d ranks", len(handles), comm.Size())
	}
	f := handles[0].File()
	for r, h := range handles {
		if h.File() != f {
			return nil, fmt.Errorf("pio: rank %d handle is open on a different file", r)
		}
	}
	if mode == ModeRecord && recordSize <= 0 {
		return nil, fmt.Errorf("pio: M_RECORD needs a positive record size")
	}
	if mode < ModeUnix || mode > ModeGlobal {
		return nil, fmt.Errorf("pio: unknown mode %d", mode)
	}
	sf := &SharedFile{
		comm:    comm,
		handles: handles,
		mode:    mode,
		record:  recordSize,
		opCount: make([]int64, comm.Size()),
	}
	if mode == ModeLog {
		sf.token = sim.NewResource(handles[0].engine(), "pfs.M_LOG", 1)
	}
	return sf, nil
}

// Mode returns the access mode.
func (sf *SharedFile) Mode() Mode { return sf.mode }

// Write performs one n-byte write by rank under the file's mode and
// returns the file offset it landed at. Under ModeSync and ModeGlobal all
// ranks must call collectively with the same n; ModeGlobal rejects writes.
func (sf *SharedFile) Write(p *sim.Proc, rank int, n int64) int64 {
	return sf.op(p, rank, n, true)
}

// Read performs one n-byte read by rank under the file's mode and returns
// the offset read. Under ModeSync and ModeGlobal all ranks must call
// collectively with the same n.
func (sf *SharedFile) Read(p *sim.Proc, rank int, n int64) int64 {
	return sf.op(p, rank, n, false)
}

func (sf *SharedFile) op(p *sim.Proc, rank int, n int64, write bool) int64 {
	h := sf.handles[rank]
	do := func(off int64) {
		if write {
			h.WriteAt(p, off, n)
		} else {
			h.ReadAt(p, off, n)
		}
	}
	switch sf.mode {
	case ModeUnix:
		off := h.Pos()
		do(off)
		return off

	case ModeLog:
		// Claim the shared pointer, perform the whole operation while
		// holding it (PFS serialized M_LOG operations end to end).
		if !sf.token.Claim(sim.Step{P: p}) {
			p.Suspend()
		}
		off := sf.shared
		sf.shared += n
		do(off)
		sf.token.Release()
		return off

	case ModeSync:
		// Lockstep: everyone arrives, each rank's piece goes at
		// shared + rank*n, and nobody leaves before the slowest.
		sf.comm.Barrier(p, rank)
		base := sf.shared
		off := base + int64(rank)*n
		do(off)
		sf.comm.Barrier(p, rank)
		// Every rank advances the pointer identically; assign (not add)
		// so the P concurrent callers agree.
		sf.shared = base + int64(sf.comm.Size())*n
		return off

	case ModeRecord:
		if n != sf.record {
			panic(fmt.Sprintf("pio: M_RECORD op of %d bytes, record size is %d", n, sf.record))
		}
		k := sf.opCount[rank]
		sf.opCount[rank]++
		off := (k*int64(sf.comm.Size()) + int64(rank)) * sf.record
		do(off)
		return off

	case ModeGlobal:
		if write {
			panic("pio: M_GLOBAL is a read mode")
		}
		// One node touches the disk; everyone else gets the data over
		// the tree broadcast.
		sf.comm.Barrier(p, rank)
		off := sf.shared
		if rank == 0 {
			do(off)
		}
		sf.comm.Bcast(p, rank, 0, n)
		if rank == 0 {
			sf.shared = off + n
		}
		return off
	}
	panic("pio: unreachable mode")
}
