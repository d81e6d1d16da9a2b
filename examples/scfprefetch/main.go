// scfprefetch demonstrates the efficient-interface and prefetching
// optimizations on the SCF 1.1 read phase (paper §4.2): the same
// disk-based Hartree-Fock run under Fortran I/O, PASSION calls, and
// PASSION with prefetching, at several prefetch depths.
//
//	go run ./examples/scfprefetch
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"pario/internal/apps/scf"
	"pario/internal/core"
	"pario/internal/machine"
)

func main() {
	// A reduced basis set so the example runs in seconds; scf.Large with
	// the same code path reproduces the paper's Tables 2-3.
	if err := run(os.Stdout, scf.Input{Name: "demo", N: 64}, []int{1, 2, 4}); err != nil {
		log.Fatal(err)
	}
}

// run prints the interface comparison and the prefetch-depth sweep for
// the given input.
func run(w io.Writer, in scf.Input, depths []int) error {
	m, err := machine.ParagonLarge(12)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "SCF 1.1 (disk-based Hartree-Fock), N=%d basis functions, 4 processes\n", in.N)
	fmt.Fprintf(w, "integral file: %.1f MB per run, re-read %d times\n\n",
		float64(scf.StoredBytes(in))/1e6, 15)

	spec := core.Spec{Machine: m, Procs: 4}
	for _, v := range []scf.Version{scf.Original, scf.Passion, scf.PassionPrefetch} {
		rep, err := core.Run(nil, spec, scf.Config11{Input: in, Version: v}.Setup)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-18s exec %8.1f s   I/O %8.1f s (%4.1f%% of exec)\n",
			v.String()+":", rep.ExecSec, rep.IOMaxSec, rep.IOPctOfExec())
	}

	fmt.Fprintln(w, "\nprefetch depth sweep (PASSION interface):")
	for _, depth := range depths {
		rep, err := core.Run(nil, spec, scf.Config11{Input: in, Version: scf.PassionPrefetch, PrefetchDepth: depth}.Setup)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  depth %d: exec %8.1f s   I/O %8.1f s\n", depth, rep.ExecSec, rep.IOMaxSec)
	}
	fmt.Fprintln(w, "\nWith per-chunk compute above per-chunk I/O, one buffer of lookahead")
	fmt.Fprintln(w, "already hides nearly all read latency (the paper's F versions).")
	return nil
}
