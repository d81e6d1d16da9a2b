// fftlayout demonstrates the file-layout optimization of paper §4.4: the
// same 2-D out-of-core FFT run with both arrays column-major versus with
// the transpose target stored row-major, on 2 and 4 I/O nodes. Every run
// is one request.Request, the body pariod's /run answers for it.
//
//	go run ./examples/fftlayout           # reduced size, a blink
//	go run ./examples/fftlayout -full     # the paper's 1.5 GB problem
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"pario/internal/request"
)

func main() {
	full := flag.Bool("full", false, "run the paper-size problem (N=4096)")
	flag.Parse()
	if err := run(os.Stdout, *full); err != nil {
		log.Fatal(err)
	}
}

// run prints the layout comparison for each processor count: on a
// 1024x1024 problem with a 1 MB buffer, or at the paper's defaults (N=4096,
// 8 MB) when full is set.
func run(w io.Writer, full bool) error {
	base := request.Request{App: "fft", N: 1024, BufferKB: 1024}
	if full {
		base = request.Request{App: "fft", N: 4096}
	}
	procCounts := []int{1, 2, 4, 8, 16}
	rows := make([][]float64, len(procCounts))
	var ioBytes int64
	for i, procs := range procCounts {
		for _, c := range []struct {
			nio int
			opt bool
		}{{2, false}, {4, false}, {2, true}} {
			req := base
			req.Procs, req.IONodes, req.Opt = procs, c.nio, c.opt
			rep, err := request.Run(context.Background(), req)
			if err != nil {
				return err
			}
			rows[i] = append(rows[i], rep.ExecSec)
			ioBytes = rep.BytesRead + rep.BytesWritten
		}
	}
	// Every run moves the same volume, six passes over an NxN array of
	// 16-byte complex values, whatever the layout or partition.
	n := int64(base.N)
	fmt.Fprintf(w, "2-D out-of-core FFT, N=%d (%.0f MB per array, %.0f MB total I/O)\n\n",
		n, float64(n*n*16)/1e6, float64(ioBytes)/1e6)
	fmt.Fprintf(w, "%6s | %12s | %12s | %12s\n", "procs", "unopt 2io", "unopt 4io", "opt 2io")
	for i, procs := range procCounts {
		fmt.Fprintf(w, "%6d | %10.1fs | %10.1fs | %10.1fs\n", procs, rows[i][0], rows[i][1], rows[i][2])
	}
	fmt.Fprintln(w, "\nThe row-major transpose target on 2 I/O nodes beats the")
	fmt.Fprintln(w, "column-major original even when the latter gets 4 I/O nodes:")
	fmt.Fprintln(w, "software layout choice outruns added hardware (paper §4.4).")
	return nil
}
