// btiocollective demonstrates two-phase collective I/O on the BTIO
// checkpoint pattern (paper §4.5): the same multipartition dump performed
// as independent per-run writes versus as a collective exchange plus one
// large request per process. Every run is one request.Request, the body
// pariod's /run answers for it.
//
//	go run ./examples/btiocollective
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"

	"pario/internal/request"
	"pario/internal/trace"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run prints the independent-versus-collective comparison for each
// processor count.
func run(w io.Writer) error {
	// A reduced Class A so the example runs in a blink; cmd/ioexp -exp
	// fig6 runs the paper-size sweep.
	base := request.Request{App: "btio", Class: "A", N: 32, Dumps: 10}
	fmt.Fprintf(w, "BTIO on the SP-2 (PIOFS, 4 I/O nodes x 4 SSA disks), %d dumps of %d^3 x 5 doubles\n\n",
		base.Dumps, base.N)
	fmt.Fprintf(w, "%6s | %10s %10s %12s | %10s %10s %12s | %8s\n", "procs",
		"unopt I/O", "unopt tot", "unopt writes", "opt I/O", "opt tot", "opt writes", "speedup")
	for _, procs := range []int{4, 9, 16, 25, 36} {
		un, op := base, base
		un.Procs, op.Procs, op.Opt = procs, procs, true
		ur, err := request.Run(context.Background(), un)
		if err != nil {
			return err
		}
		or, err := request.Run(context.Background(), op)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%6d | %9.1fs %9.1fs %12d | %9.1fs %9.1fs %12d | %7.1fx\n",
			procs,
			ur.IOMaxSec, ur.ExecSec, ur.Trace.Get(trace.Write).Count,
			or.IOMaxSec, or.ExecSec, or.Trace.Get(trace.Write).Count,
			ur.ExecSec/or.ExecSec)
	}
	fmt.Fprintln(w, "\nThe unoptimized version's request count grows with sqrt(P) while its")
	fmt.Fprintln(w, "requests shrink; the collective version issues P large requests per dump.")
	return nil
}
