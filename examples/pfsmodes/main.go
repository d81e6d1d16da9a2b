// pfsmodes demonstrates the Paragon PFS shared-file access modes the paper
// blames for parallel I/O's poor usability (§5): the same shared-append
// workload run under M_UNIX, M_LOG, M_SYNC, M_RECORD and M_GLOBAL. The
// workload is workload.Shared, the one ioexp's modes artifact runs.
//
//	go run ./examples/pfsmodes
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"pario/internal/machine"
	"pario/internal/pio"
	"pario/internal/workload"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run prints each mode's wall clock with what the mode buys and costs.
func run(w io.Writer) error {
	m, err := machine.ParagonLarge(16)
	if err != nil {
		return err
	}
	const (
		procs   = 8
		ops     = 8
		opBytes = 256 << 10
	)
	fmt.Fprintf(w, "%d processes, %d x %d KB operations each, shared PFS file\n\n", procs, ops, opBytes>>10)
	fmt.Fprintf(w, "%-10s %10s   %s\n", "mode", "wall", "what it buys / costs")
	notes := map[pio.Mode]string{
		pio.ModeUnix:   "independent pointers; no coordination, no shared order",
		pio.ModeLog:    "atomic shared append; every op serializes on the pointer",
		pio.ModeSync:   "lockstep rank-ordered layout; slowest node gates each op",
		pio.ModeRecord: "round-robin fixed records; coordination-free and ordered",
		pio.ModeGlobal: "one disk read, broadcast to all (read-only)",
	}
	for _, mode := range []pio.Mode{pio.ModeUnix, pio.ModeLog, pio.ModeSync, pio.ModeRecord, pio.ModeGlobal} {
		rep, err := workload.Shared(m, mode, procs, ops, opBytes)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-10s %9.2fs   %s\n", mode, rep.ExecSec, notes[mode])
	}
	fmt.Fprintln(w, "\nEach mode trades coordination for ordering guarantees differently —")
	fmt.Fprintln(w, "the portability problem the paper's §5 complains about.")
	return nil
}
