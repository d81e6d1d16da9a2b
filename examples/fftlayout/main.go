// fftlayout demonstrates the file-layout optimization of paper §4.4: the
// same 2-D out-of-core FFT run with both arrays column-major versus with
// the transpose target stored row-major, on 2 and 4 I/O nodes.
//
//	go run ./examples/fftlayout           # reduced size, seconds
//	go run ./examples/fftlayout -full     # the paper's 1.5 GB problem
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"pario/internal/apps/fft"
	"pario/internal/core"
	"pario/internal/machine"
)

func main() {
	full := flag.Bool("full", false, "run the paper-size problem (N=4096)")
	flag.Parse()

	n, buf := int64(1024), int64(1<<20)
	if *full {
		n, buf = 4096, 8<<20
	}
	if err := run(os.Stdout, n, buf, []int{1, 2, 4, 8, 16}); err != nil {
		log.Fatal(err)
	}
}

// run prints the layout comparison for each processor count on an NxN
// problem with the given OOC buffer.
func run(w io.Writer, n, buf int64, procCounts []int) error {
	fmt.Fprintf(w, "2-D out-of-core FFT, N=%d (%.0f MB per array, %.0f MB total I/O)\n\n",
		n, float64(n*n*16)/1e6, float64(fft.TotalIOBytes(n))/1e6)

	fmt.Fprintf(w, "%6s | %12s | %12s | %12s\n", "procs", "unopt 2io", "unopt 4io", "opt 2io")
	for _, procs := range procCounts {
		row := make([]float64, 0, 3)
		for _, c := range []struct {
			nio int
			opt bool
		}{{2, false}, {4, false}, {2, true}} {
			m, err := machine.ParagonSmall(c.nio)
			if err != nil {
				return err
			}
			rep, err := core.Run(nil, core.Spec{Machine: m, Procs: procs},
				fft.Config{N: n, OptimizedLayout: c.opt, BufferBytes: buf}.Setup)
			if err != nil {
				return err
			}
			row = append(row, rep.ExecSec)
		}
		fmt.Fprintf(w, "%6d | %10.1fs | %10.1fs | %10.1fs\n", procs, row[0], row[1], row[2])
	}
	fmt.Fprintln(w, "\nThe row-major transpose target on 2 I/O nodes beats the")
	fmt.Fprintln(w, "column-major original even when the latter gets 4 I/O nodes:")
	fmt.Fprintln(w, "software layout choice outruns added hardware (paper §4.4).")
	return nil
}
