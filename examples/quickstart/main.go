// Quickstart: build a simulated parallel machine, run a small SPMD
// workload that writes and re-reads a striped file through two different
// I/O interfaces, and print the paper-style operation summary for each.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"pario/internal/core"
	"pario/internal/machine"
	"pario/internal/pfs"
	"pario/internal/pio"
	"pario/internal/sim"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run runs the workload through the Fortran and PASSION interfaces and
// prints each run's summary.
func run(w io.Writer) error {
	// A large Intel Paragon with a 12-node I/O partition.
	cfg, err := machine.ParagonLarge(12)
	if err != nil {
		return err
	}
	for _, iface := range []pio.ClientParams{cfg.Fortran, cfg.Passion} {
		rep, err := runWorkload(cfg, iface)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "--- interface: %s ---\n", iface.Name)
		fmt.Fprintf(w, "exec %.2f s, I/O %.2f s per process (%.1f%% of exec)\n\n",
			rep.ExecSec, rep.IOMaxSec, rep.IOPctOfExec())
		fmt.Fprintln(w, rep.Trace.Table(rep.ExecSec*float64(rep.Procs)))
	}
	return nil
}

// runWorkload runs 8 ranks, each writing a private 16 MB file in 64 KB
// chunks and reading it back three times — a miniature of the SCF pattern.
func runWorkload(cfg *machine.Config, iface pio.ClientParams) (core.Report, error) {
	const (
		procs    = 8
		fileSize = 16 << 20
		chunk    = 64 << 10
		passes   = 3
	)
	// core.Run builds the machine, lets setup create the files, runs the
	// returned body once per rank and reports.
	return core.Run(nil, core.Spec{Machine: cfg, Procs: procs}, func(sys *core.System) (core.Body, error) {
		// One private file per rank, striped over the whole I/O partition.
		files := make([]*pfs.File, procs)
		for r := range files {
			f, err := sys.FS.Create(fmt.Sprintf("data.%d", r), sys.DefaultLayout(), fileSize)
			if err != nil {
				return nil, err
			}
			files[r] = f
		}
		return func(p *sim.Proc, rank int) {
			h := sys.Client(rank, iface).Open(p, files[rank])
			for off := int64(0); off < fileSize; off += chunk {
				sys.Compute(p, 1e6) // produce the chunk
				h.WriteAt(p, off, chunk)
			}
			h.Flush(p)
			for pass := 0; pass < passes; pass++ {
				for off := int64(0); off < fileSize; off += chunk {
					h.ReadAt(p, off, chunk)
					sys.Compute(p, 2e6) // consume the chunk
				}
			}
			h.Close(p)
		}, nil
	})
}
