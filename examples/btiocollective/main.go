// btiocollective demonstrates two-phase collective I/O on the BTIO
// checkpoint pattern (paper §4.5): the same multipartition dump performed
// as independent per-run writes versus as a collective exchange plus one
// large request per process.
//
//	go run ./examples/btiocollective
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"pario/internal/apps/btio"
	"pario/internal/core"
	"pario/internal/machine"
	"pario/internal/trace"
)

func main() {
	// A reduced Class A so the example runs in seconds; pass the real
	// class through cmd/ioexp -exp fig6 for the paper-size sweep.
	cls := btio.Class{Name: "A/4", N: 32, Dumps: 10}
	if err := run(os.Stdout, cls, []int{4, 9, 16, 25, 36}); err != nil {
		log.Fatal(err)
	}
}

// run prints the independent-versus-collective comparison for each
// processor count.
func run(w io.Writer, cls btio.Class, procCounts []int) error {
	m, err := machine.SP2()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "BTIO on the SP-2 (PIOFS, 4 I/O nodes x 4 SSA disks), %d dumps of %d^3 x 5 doubles\n\n",
		cls.Dumps, cls.N)
	fmt.Fprintf(w, "%6s | %10s %10s %12s | %10s %10s %12s | %8s\n", "procs",
		"unopt I/O", "unopt tot", "unopt writes", "opt I/O", "opt tot", "opt writes", "speedup")
	for _, procs := range procCounts {
		spec := core.Spec{Machine: m, Procs: procs}
		un, err := core.Run(nil, spec, btio.Config{Class: cls}.Setup)
		if err != nil {
			return err
		}
		op, err := core.Run(nil, spec, btio.Config{Class: cls, Collective: true}.Setup)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%6d | %9.1fs %9.1fs %12d | %9.1fs %9.1fs %12d | %7.1fx\n",
			procs,
			un.IOMaxSec, un.ExecSec, un.Trace.Get(trace.Write).Count,
			op.IOMaxSec, op.ExecSec, op.Trace.Get(trace.Write).Count,
			un.ExecSec/op.ExecSec)
	}
	fmt.Fprintln(w, "\nThe unoptimized version's request count grows with sqrt(P) while its")
	fmt.Fprintln(w, "requests shrink; the collective version issues P large requests per dump.")
	return nil
}
