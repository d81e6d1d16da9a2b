package roofline

import (
	"fmt"
	"math"

	"pario/internal/apps/ast"
	"pario/internal/apps/btio"
	"pario/internal/apps/fft"
	"pario/internal/apps/scf"
	"pario/internal/pfs"
)

// Each builder mirrors its app's Run function phase by phase, pricing the
// same op and byte counts the simulation executes. Constants come from the
// app packages themselves (apps/*/counts.go), so a recalibration there
// moves both the kernel and the estimate.

// dataCall folds the interface's per-call software cost with its explicit
// seek, matching pio.Handle's positioning rule for sequential access.
func dataCall(sec, seekSec float64, explicit bool) float64 {
	if explicit {
		return sec + seekSec
	}
	return sec
}

func (m *Model) scf11(in Input) ([]Phase, int64, int64, int64, error) {
	scfIn := in.Input
	P := float64(in.Procs)
	total := float64(scf.StoredBytes(scfIn))
	perProc := total / P
	chunk := float64(in.MemoryKB << 10)
	nChunks := math.Ceil(perProc / chunk)

	par := m.Interface("fortran")
	if in.Version != scf.Original {
		par = m.Interface("passion")
	}
	callW := dataCall(par.WriteCallSec, par.SeekSec, par.ExplicitSeeks)
	callR := dataCall(par.ReadCallSec, par.SeekSec, par.ExplicitSeeks)

	evalFlopsPerByte := scf.EvalFlopsPerIntegral / (scf.ScreenFrac * scf.IntegralBytes)
	fockFlopsPerByte := float64(scf.FockFlopsPerStored11) / scf.IntegralBytes
	iters := float64(scf.ReadIterationCount)

	write := m.phase("write", load{
		calls:        nChunks,
		callSec:      callW,
		extraSW:      4*par.OpenSec + 2*par.CloseSec, // handle + aux control files
		bytesPerRank: perProc,
		ranks:        P,
		write:        true,
		diskReqs:     m.diskRequests(total, chunk),
		linkBytes:    total + pfs.RequestMsgBytes*nChunks*P,
		nicBytes:     total / float64(m.IONodes),
		computeSec:   m.computeSec(perProc * evalFlopsPerByte),
	})

	// The original version seeks at index-block boundaries and rewinds
	// once per iteration; every version flushes on most iterations.
	var seekSW float64
	if in.Version == scf.Original {
		blockLen := math.Ceil(perProc / scf.RecordBlockCount)
		if blockLen > chunk {
			seekSW = scf.RecordBlockCount * par.SeekSec
		}
		seekSW += par.SeekSec // rewind
	}
	read := m.phase("read", load{
		calls:        iters * nChunks,
		callSec:      callR,
		extraSW:      iters*seekSW + (iters-3)*par.FlushSec + par.CloseSec,
		bytesPerRank: iters * perProc,
		ranks:        P,
		diskReqs:     iters * m.diskRequests(total, chunk),
		linkBytes:    iters * (total + pfs.RequestMsgBytes*nChunks*P),
		nicBytes:     iters * total / float64(m.IONodes),
		overlap:      in.Version == scf.PassionPrefetch,
		computeSec:   iters * m.computeSec(perProc*fockFlopsPerByte),
		collective:   iters * m.allreduceSec(in.Procs, int64(8*scfIn.N)),
	})

	client := int64(total + iters*total)
	link := int64(write.linkInput() + read.linkInput())
	return []Phase{write, read}, client, link, client, nil
}

func (m *Model) scf30(in Input) ([]Phase, int64, int64, int64, error) {
	scfIn := in.Input
	P := float64(in.Procs)
	cached := float64(in.CachedPct) / 100
	total := float64(scf.StoredBytes(scfIn)) * cached
	perProc := total / P
	chunk := float64(int64(scf.DefaultMemoryKB30) << 10)
	nChunks := math.Ceil(perProc / chunk)
	if perProc == 0 {
		nChunks = 0
	}

	par := m.Interface("passion")
	callW := dataCall(par.WriteCallSec, par.SeekSec, par.ExplicitSeeks)
	callR := dataCall(par.ReadCallSec, par.SeekSec, par.ExplicitSeeks)

	nInt := scf.Integrals(scfIn.N)
	iters := float64(scf.ReadIterationCount)
	evalAll := nInt * scf.EvalFlopsPerIntegral / P
	recompute := nInt * (1 - cached) * scf.EvalFlopsPerIntegral * scf.RecomputeCostFactor / P
	fock := nInt * scf.ScreenFrac * scf.FockFlopsPerStored30 / P

	// Balancing shuffles a small size delta; a barrier plus a light
	// exchange approximates it.
	balance := m.barrierSec(in.Procs) + m.alltoallvSec(in.Procs, perProc*0.05)

	write := m.phase("write", load{
		calls:        nChunks,
		callSec:      callW,
		extraSW:      par.OpenSec + par.FlushSec,
		bytesPerRank: perProc,
		ranks:        P,
		write:        true,
		diskReqs:     m.diskRequests(total, chunk),
		linkBytes:    total + pfs.RequestMsgBytes*nChunks*P,
		nicBytes:     total / float64(m.IONodes),
		computeSec:   m.computeSec(evalAll),
		collective:   balance,
	})
	read := m.phase("read", load{
		calls:        iters * nChunks,
		callSec:      callR,
		extraSW:      par.CloseSec,
		bytesPerRank: iters * perProc,
		ranks:        P,
		diskReqs:     iters * m.diskRequests(total, chunk),
		linkBytes:    iters * (total + pfs.RequestMsgBytes*nChunks*P),
		nicBytes:     iters * total / float64(m.IONodes),
		overlap:      true, // 3.0 always prefetches the cached share
		computeSec:   iters * m.computeSec(recompute+fock),
		collective:   iters * m.allreduceSec(in.Procs, int64(8*scfIn.N)),
	})

	client := int64(total + iters*total)
	link := int64(write.linkInput() + read.linkInput())
	return []Phase{write, read}, client, link, client, nil
}

func (m *Model) fft(in Input) ([]Phase, int64, int64, int64, error) {
	n, buf := in.N, in.BufferBytes
	if int64(in.Procs) > n {
		return nil, 0, 0, 0, fmt.Errorf("roofline: fft needs procs <= %d", n)
	}
	P := float64(in.Procs)
	cols := float64(n) / P
	arrBytes := float64(n * n * fft.ElemBytes)
	perProc := arrBytes / P

	par := m.Interface("native")
	panel := float64(fft.PanelCols(buf, n))
	tile := float64(fft.TransposeTile(buf, n))
	colBytes := float64(n * fft.ElemBytes)

	// Steps 1 and 3: sequential panel sweeps, read + FFT + write, twice.
	panels := math.Ceil(cols / panel)
	runBytes := math.Min(cols, panel) * colBytes
	sweep := m.phase("fft-sweeps", load{
		calls:        2 * 2 * panels, // read+write per panel, two steps
		callSec:      par.ReadCallSec,
		extraSW:      2*par.OpenSec + 2*par.CloseSec,
		bytesPerRank: 4 * perProc,
		ranks:        P,
		diskReqs:     m.diskRequests(4*arrBytes, runBytes),
		linkBytes:    4 * arrBytes,
		nicBytes:     4 * arrBytes / float64(m.IONodes),
		computeSec:   2 * m.computeSec(cols*fft.FFTFlops(n)),
		collective:   2 * m.barrierSec(in.Procs),
	})

	// Step 2: the transpose. Optimized layout keeps both sides in full
	// column/row runs; the original shatters both into tile-edge strips.
	var calls, run float64
	if in.Opt {
		calls = 2 * cols // one run per column, each side
		run = colBytes
	} else {
		calls = 2 * cols * float64(n) / tile
		run = tile * fft.ElemBytes
	}
	transpose := m.phase("transpose", load{
		calls:        calls,
		callSec:      par.ReadCallSec,
		bytesPerRank: 2 * perProc,
		ranks:        P,
		diskReqs:     m.diskRequests(2*arrBytes, run),
		linkBytes:    2 * arrBytes,
		nicBytes:     2 * arrBytes / float64(m.IONodes),
		computeSec:   m.computeSec(2 * cols * float64(n)),
	})

	client := int64(6 * arrBytes)
	link := int64(sweep.linkInput() + transpose.linkInput())
	return []Phase{sweep, transpose}, client, link, client, nil
}

func (m *Model) btio(in Input) ([]Phase, int64, int64, int64, error) {
	q := int(math.Round(math.Sqrt(float64(in.Procs))))
	if q*q != in.Procs {
		return nil, 0, 0, 0, fmt.Errorf("roofline: btio needs a square process count, not %d", in.Procs)
	}
	cls := in.Class
	n := float64(cls.N)
	dumps := float64(cls.Dumps)
	P := float64(in.Procs)
	cell := n / float64(q)
	pointBytes := float64(btio.Components * btio.ElemBytes)
	snap := n * n * n * pointBytes
	compute := dumps * m.computeSec(btio.StepsPerDumpCount*btio.StepFlopsPerPoint*n*n*n/P)

	par := m.Interface("unix")
	var ph Phase
	if in.Opt {
		// Collective buffering: per dump, an exchange plus one conforming
		// write of a contiguous 1/P domain per rank.
		exch := m.alltoallvSec(in.Procs, snap/P) + 2*m.barrierSec(in.Procs)
		ph = m.phase("dumps", load{
			calls:        dumps,
			callSec:      par.WriteCallSec,
			extraSW:      par.OpenSec + par.CloseSec,
			bytesPerRank: dumps * snap / P,
			ranks:        P,
			write:        true,
			diskReqs:     m.diskRequests(dumps*snap, snap/P),
			linkBytes:    dumps * 2 * snap,
			nicBytes:     dumps * snap / float64(m.IONodes),
			computeSec:   compute,
			collective:   dumps * exch,
		})
	} else {
		// Independent writes: q cells per rank per dump, each shattered
		// into cell-edge runs of (n/q) points.
		runs := dumps * float64(q) * cell * cell
		runBytes := cell * pointBytes
		ph = m.phase("dumps", load{
			calls:        runs,
			callSec:      par.WriteCallSec,
			extraSW:      par.OpenSec + par.CloseSec,
			bytesPerRank: dumps * snap / P,
			ranks:        P,
			write:        true,
			diskReqs:     m.diskRequests(dumps*snap, runBytes),
			linkBytes:    dumps*snap + pfs.RequestMsgBytes*runs*P,
			nicBytes:     dumps * snap / float64(m.IONodes),
			computeSec:   compute,
		})
	}
	client := int64(dumps * snap)
	return []Phase{ph}, client, int64(ph.linkInput()), client, nil
}

func (m *Model) ast(in Input) ([]Phase, int64, int64, int64, error) {
	n := float64(in.N)
	if float64(in.Procs) > n {
		return nil, 0, 0, 0, fmt.Errorf("roofline: ast needs procs <= %d", in.N)
	}
	arrays := float64(in.Arrays)
	dumps := float64(in.Dumps)
	P := float64(in.Procs)
	snap := arrays * n * n * ast.ElemBytes
	compute := dumps * m.computeSec(ast.SolverFlopsPerPoint*n*n*arrays/P)

	var ph Phase
	if in.Opt {
		par := m.Interface("passion")
		exch := m.alltoallvSec(in.Procs, snap/P) + 2*m.barrierSec(in.Procs)
		ph = m.phase("dumps", load{
			calls:        dumps,
			callSec:      dataCall(par.WriteCallSec, par.SeekSec, par.ExplicitSeeks),
			extraSW:      par.OpenSec + par.CloseSec,
			bytesPerRank: dumps * snap / P,
			ranks:        P,
			write:        true,
			diskReqs:     m.diskRequests(dumps*snap, snap/P),
			linkBytes:    dumps * 2 * snap,
			nicBytes:     dumps * snap / float64(m.IONodes),
			computeSec:   compute,
			collective:   dumps * exch,
		})
	} else {
		// The funnel: every rank packs its portion through the library's
		// fixed-size chunks at the Fortran write-call cost; rank 0's NIC
		// carries the whole volume and the drain shatters into
		// chunk-sized disk requests.
		chunk := float64(ast.ChameleonChunkBytes)
		chunksPerRank := dumps * math.Ceil(snap/P/chunk)
		ph = m.phase("dumps", load{
			calls:        chunksPerRank,
			callSec:      m.cfg.Fortran.WriteCallSec,
			bytesPerRank: dumps * snap / P,
			ranks:        P,
			write:        true,
			diskReqs:     m.diskRequests(dumps*snap, chunk),
			linkBytes:    dumps * 2 * snap,
			nicBytes:     dumps * snap, // all funneled through rank 0
			computeSec:   compute,
			collective:   dumps * 2 * m.barrierSec(in.Procs),
		})
	}
	client := int64(dumps * snap)
	return []Phase{ph}, client, int64(ph.linkInput()), client, nil
}
