// scfprefetch demonstrates the efficient-interface and prefetching
// optimizations on the SCF 1.1 read phase (paper §4.2): the same
// disk-based Hartree-Fock run under Fortran I/O, PASSION calls, and
// PASSION with prefetching. Every run is one request.Request, the body
// pariod's /run answers for it.
//
//	go run ./examples/scfprefetch
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"

	"pario/internal/request"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run prints the interface comparison.
func run(w io.Writer) error {
	// A reduced basis set so the example runs in a blink; input LARGE
	// with the same code path reproduces the paper's Tables 2-3.
	base := request.Request{App: "scf11", N: 64, Procs: 4}
	versions := []struct{ version, label string }{
		{"original", "original"}, {"passion", "passion"}, {"prefetch", "passion+prefetch"},
	}
	var rows []string
	var written int64
	for _, v := range versions {
		req := base
		req.Version = v.version
		rep, err := request.Run(context.Background(), req)
		if err != nil {
			return err
		}
		// Every version writes the integral file once, the same bytes.
		written = rep.BytesWritten
		rows = append(rows, fmt.Sprintf("%-18s exec %8.1f s   I/O %8.1f s (%4.1f%% of exec)\n",
			v.label+":", rep.ExecSec, rep.IOMaxSec, rep.IOPctOfExec()))
	}
	fmt.Fprintf(w, "SCF 1.1 (disk-based Hartree-Fock), N=%d basis functions, %d processes\n", base.N, base.Procs)
	fmt.Fprintf(w, "integral file: %.1f MB per run, re-read %d times\n\n", float64(written)/1e6, 15)
	for _, row := range rows {
		fmt.Fprint(w, row)
	}
	fmt.Fprintln(w, "\nWith per-chunk compute above per-chunk I/O, one buffer of lookahead")
	fmt.Fprintln(w, "already hides nearly all read latency (the paper's F versions); for")
	fmt.Fprintln(w, "deeper lookahead, see BenchmarkAblationPrefetchDepth in bench_test.go.")
	return nil
}
