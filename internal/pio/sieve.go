package pio

import (
	"pario/internal/ooc"
	"pario/internal/sim"
)

// Data sieving is the PASSION/ROMIO technique for non-contiguous access:
// instead of one file request per piece, the library reads (or
// read-modify-writes) the whole extent covering a window of pieces in a
// single large request and copies the useful bytes in memory. It trades
// wasted transfer volume for a drastically lower request count — worthwhile
// exactly when requests are overhead- and seek-dominated, which is the
// regime the paper's unoptimized applications live in.

// SieveStats reports what a sieved operation did.
type SieveStats struct {
	// Requests is the number of file requests issued.
	Requests int64
	// Useful is the byte count the application asked for.
	Useful int64
	// Transferred is the byte count actually moved (>= Useful).
	Transferred int64
}

// WasteFraction returns the fraction of moved bytes that were not asked
// for.
func (s SieveStats) WasteFraction() float64 {
	if s.Transferred == 0 {
		return 0
	}
	return 1 - float64(s.Useful)/float64(s.Transferred)
}

// sieveWindows greedily groups runs (sorted by offset) into windows whose
// covering extent fits bufBytes. A run larger than the buffer becomes its
// own window.
func sieveWindows(runs []ooc.Run, bufBytes int64) [][]ooc.Run {
	var out [][]ooc.Run
	var cur []ooc.Run
	var lo, hi int64
	for _, r := range runs {
		if len(cur) == 0 {
			cur = []ooc.Run{r}
			lo, hi = r.Off, r.Off+r.Len
			continue
		}
		nhi := r.Off + r.Len
		if nhi < hi {
			nhi = hi
		}
		if nhi-lo <= bufBytes {
			cur = append(cur, r)
			hi = nhi
			continue
		}
		out = append(out, cur)
		cur = []ooc.Run{r}
		lo, hi = r.Off, r.Off+r.Len
	}
	if len(cur) > 0 {
		out = append(out, cur)
	}
	return out
}

// extent returns the covering range of a non-empty window.
func windowExtent(w []ooc.Run) (lo, hi int64) {
	lo, hi = w[0].Off, w[0].Off+w[0].Len
	for _, r := range w[1:] {
		if r.Off < lo {
			lo = r.Off
		}
		if e := r.Off + r.Len; e > hi {
			hi = e
		}
	}
	return lo, hi
}

// ReadSieved reads the given non-contiguous runs (which must be sorted by
// offset and non-overlapping) using data sieving with a buffer of bufBytes,
// and returns what it did. Each window costs one large read plus the
// memory copies extracting the useful pieces.
func (h *Handle) ReadSieved(p *sim.Proc, runs []ooc.Run, bufBytes int64) SieveStats {
	if bufBytes <= 0 {
		panic("pio: sieve buffer must be positive")
	}
	var st SieveStats
	copyByteTime := h.c.fs.Network().Params().MemCopyByteTime
	for _, w := range sieveWindows(runs, bufBytes) {
		lo, hi := windowExtent(w)
		h.ReadAt(p, lo, hi-lo)
		st.Requests++
		st.Transferred += hi - lo
		var useful int64
		for _, r := range w {
			useful += r.Len
		}
		st.Useful += useful
		if ct := float64(useful) * copyByteTime; ct > 0 {
			p.Delay(ct)
		}
	}
	return st
}
