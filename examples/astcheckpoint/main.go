// astcheckpoint demonstrates the AST comparison of paper §4.6: periodic
// checkpoint dumps of distributed arrays through a Chameleon-style funnel
// (all I/O via node 0 in small chunks) versus two-phase collective I/O,
// on 16 and 64 I/O nodes.
//
//	go run ./examples/astcheckpoint
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"pario/internal/apps/ast"
	"pario/internal/core"
	"pario/internal/machine"
)

func main() {
	// Reduced arrays so the example runs in seconds (Table 4's full
	// 2Kx2K x 5-array runs come from cmd/ioexp -exp table4).
	base := ast.Config{N: 512, Arrays: 3, Dumps: 4}
	if err := run(os.Stdout, base, []int{4, 8, 16, 32}); err != nil {
		log.Fatal(err)
	}
}

// run prints the funnel-versus-collective comparison for each processor
// count.
func run(w io.Writer, base ast.Config, procCounts []int) error {
	fmt.Fprintf(w, "AST checkpoint dumps: %d arrays of %dx%d doubles, %d dump points\n\n",
		base.Arrays, base.N, base.N, base.Dumps)
	fmt.Fprintf(w, "%6s | %12s %12s | %12s %12s\n", "procs",
		"funnel 16io", "funnel 64io", "2phase 16io", "2phase 64io")
	for _, procs := range procCounts {
		var cells []float64
		for _, opt := range []bool{false, true} {
			for _, nio := range []int{16, 64} {
				m, err := machine.ParagonLarge(nio)
				if err != nil {
					return err
				}
				cfg := base
				cfg.Optimized = opt
				rep, err := core.Run(nil, core.Spec{Machine: m, Procs: procs}, cfg.Setup)
				if err != nil {
					return err
				}
				cells = append(cells, rep.ExecSec)
			}
		}
		fmt.Fprintf(w, "%6d | %11.1fs %11.1fs | %11.1fs %11.1fs\n",
			procs, cells[0], cells[1], cells[2], cells[3])
	}
	fmt.Fprintln(w, "\nThe funnel's cost is set by its small chunks and single writer, so")
	fmt.Fprintln(w, "quadrupling the I/O partition barely moves it; two-phase collective")
	fmt.Fprintln(w, "I/O removes the pattern problem and runs an order of magnitude faster.")
	return nil
}
