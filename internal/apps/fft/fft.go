// Package fft models the paper's 2-D out-of-core FFT (§2, §4.4): three
// passes over two disk-resident N x N complex arrays on the small Paragon.
//
//	step 1: 1-D FFTs over the columns of A (strip-mined panels)
//	step 2: out-of-core transpose A -> B
//	step 3: 1-D FFTs over the (transposed) data in B
//
// Steps 1 and 3 sweep their file in storage order and are cheap. The
// transpose is the expensive step: with both files column-major, a tile
// read from A shatters into per-column segments and the corresponding tile
// written to B shatters the same way, so the program compromises on square
// tiles and pays a seek-bound request stream on both files. Storing B
// row-major makes the panel that is contiguous to read from A also
// contiguous to write to B, collapsing the transpose to a handful of large
// sequential requests (the paper's file-layout optimization).
package fft

import (
	"fmt"
	"math"

	"pario/internal/core"
	"pario/internal/ooc"
	"pario/internal/pfs"
	"pario/internal/sim"
)

// elemBytes is one complex double-precision element.
const elemBytes = 16

// fftFlops returns the arithmetic of one 1-D complex FFT of length n.
func fftFlops(n int64) float64 {
	return 5 * float64(n) * math.Log2(float64(n))
}

// Config describes one FFT run; the machine and process count are the
// run's core.Spec.
type Config struct {
	// N is the array dimension; the paper's 1.5 GB total I/O corresponds
	// to N = 4096 (6 passes x 256 MB).
	N int64
	// OptimizedLayout stores B in the order the layout advisor
	// (ooc.ChooseOrder) picks for the transpose's writes — row-major, the
	// §4.4 optimization.
	OptimizedLayout bool
	// BufferBytes is the per-process staging memory; default 8 MB of the
	// Paragon node's 32 MB.
	BufferBytes int64
}

func (c *Config) defaults(procs int) error {
	if c.N == 0 {
		c.N = 4096
	}
	if c.N < int64(procs) {
		return fmt.Errorf("fft: N=%d smaller than %d procs", c.N, procs)
	}
	if c.BufferBytes == 0 {
		c.BufferBytes = 8 << 20
	}
	if c.BufferBytes < c.N*elemBytes {
		return fmt.Errorf("fft: buffer %d cannot hold one column (%d)", c.BufferBytes, c.N*elemBytes)
	}
	return nil
}

// TotalIOBytes returns the run's total I/O volume (6 passes over the
// array), for reporting.
func TotalIOBytes(n int64) int64 { return 6 * n * n * elemBytes }

// Setup creates the FFT's two arrays on sys and returns its rank body; run
// it with core.Run.
func (cfg Config) Setup(sys *core.System) (core.Body, error) {
	if err := cfg.defaults(sys.Procs); err != nil {
		return nil, err
	}
	procs := sys.Procs
	nio := sys.FS.NumIONodes()
	layout := pfs.Layout{StripeUnit: sys.Cfg.DefaultStripeUnit, StripeFactor: nio}

	arrBytes := cfg.N * cfg.N * elemBytes
	fileA, err := sys.FS.Create("fft.A", layout, arrBytes)
	if err != nil {
		return nil, err
	}
	fileB, err := sys.FS.Create("fft.B", layout, arrBytes)
	if err != nil {
		return nil, err
	}

	// Per-process column ownership (block distribution).
	colsOf := func(rank int) (int64, int64) {
		per := cfg.N / int64(procs)
		rem := cfg.N % int64(procs)
		c0 := int64(rank)*per + min64(int64(rank), rem)
		c1 := c0 + per
		if int64(rank) < rem {
			c1++
		}
		return c0, c1
	}

	// Panel width for the sequential sweeps (steps 1 and 3): as many full
	// columns as fit the buffer (the 1-D FFTs run in place).
	panel := cfg.BufferBytes / (cfg.N * elemBytes)
	if panel < 1 {
		panel = 1
	}
	// The transpose holds a source and a destination buffer, so each gets
	// half the memory: the optimized version's panels are half as wide,
	// and the original's square tiles have edge sqrt(M/2/elem).
	tPanel := panel / 2
	if tPanel < 1 {
		tPanel = 1
	}
	tile := int64(math.Sqrt(float64(cfg.BufferBytes) / (2 * elemBytes)))
	if tile > cfg.N {
		tile = cfg.N
	}
	if tile < 1 {
		tile = 1
	}

	// B's order: column-major as the original program stores it, or — the
	// optimization — whichever order the layout advisor picks for the
	// transpose's writes, where each rank's column panels of A land as row
	// panels of B.
	orderB := ooc.ColMajor
	if cfg.OptimizedLayout {
		var writes []ooc.Access
		for rank := 0; rank < procs; rank++ {
			c0, c1 := colsOf(rank)
			for c := c0; c < c1; c += tPanel {
				writes = append(writes, ooc.Access{R0: c, R1: min64(c+tPanel, c1), C0: 0, C1: cfg.N, Times: 1})
			}
		}
		if orderB, _, _, err = ooc.ChooseOrder(cfg.N, cfg.N, writes); err != nil {
			return nil, err
		}
	}
	arrA, err := ooc.NewArray2D(cfg.N, cfg.N, elemBytes, ooc.ColMajor, 0)
	if err != nil {
		return nil, err
	}
	arrB, err := ooc.NewArray2D(cfg.N, cfg.N, elemBytes, orderB, 0)
	if err != nil {
		return nil, err
	}

	colFFTFlops := fftFlops(cfg.N)

	return func(p *sim.Proc, rank int) {
		// Hand-written code driving PFS directly: the client path is
		// cheap, so the I/O nodes set the pace (paper §4.4).
		cl := sys.Client(rank, sys.Cfg.Native)
		hA := cl.Open(p, fileA)
		hB := cl.Open(p, fileB)
		c0, c1 := colsOf(rank)

		// Step 1: column FFTs on A (contiguous panels either layout).
		for c := c0; c < c1; c += panel {
			w := min64(panel, c1-c)
			off := c * cfg.N * elemBytes
			n := w * cfg.N * elemBytes
			hA.ReadAt(p, off, n)
			sys.Compute(p, float64(w)*colFFTFlops)
			hA.WriteAt(p, off, n)
		}
		sys.Comm.Barrier(p, rank)

		// Step 2: transpose A -> B.
		if cfg.OptimizedLayout {
			// Column panels of A are row panels of row-major B: both
			// sides contiguous.
			for c := c0; c < c1; c += tPanel {
				w := min64(tPanel, c1-c)
				for _, run := range arrA.SectionRuns(0, cfg.N, c, c+w) {
					hA.ReadAt(p, run.Off, run.Len)
				}
				sys.Compute(p, 2*float64(w*cfg.N)) // in-memory transpose
				for _, run := range arrB.SectionRuns(c, c+w, 0, cfg.N) {
					hB.WriteAt(p, run.Off, run.Len)
				}
			}
		} else {
			// Square tiles; both sides shatter into per-line segments.
			for c := c0; c < c1; c += tile {
				w := min64(tile, c1-c)
				for r := int64(0); r < cfg.N; r += tile {
					hgt := min64(tile, cfg.N-r)
					for _, run := range arrA.SectionRuns(r, r+hgt, c, c+w) {
						hA.ReadAt(p, run.Off, run.Len)
					}
					sys.Compute(p, 2*float64(w*hgt))
					for _, run := range arrB.SectionRuns(c, c+w, r, r+hgt) {
						hB.WriteAt(p, run.Off, run.Len)
					}
				}
			}
		}
		sys.Comm.Barrier(p, rank)

		// Step 3: column FFTs over the transposed data, swept in B's
		// storage order (contiguous panels for either layout).
		for c := c0; c < c1; c += panel {
			w := min64(panel, c1-c)
			off := c * cfg.N * elemBytes
			n := w * cfg.N * elemBytes
			hB.ReadAt(p, off, n)
			sys.Compute(p, float64(w)*colFFTFlops)
			hB.WriteAt(p, off, n)
		}
		hA.Close(p)
		hB.Close(p)
	}, nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
