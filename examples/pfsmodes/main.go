// pfsmodes demonstrates the Paragon PFS shared-file access modes the paper
// blames for parallel I/O's poor usability (§5): the same shared-append
// workload run under M_UNIX, M_LOG, M_SYNC, M_RECORD and M_GLOBAL.
//
//	go run ./examples/pfsmodes
package main

import (
	"fmt"
	"log"

	"pario/internal/core"
	"pario/internal/machine"
	"pario/internal/pio"
	"pario/internal/sim"
)

func main() {
	m, err := machine.ParagonLarge(16)
	if err != nil {
		log.Fatal(err)
	}
	const (
		procs   = 8
		ops     = 8
		opBytes = 256 << 10
	)
	fmt.Printf("%d processes, %d x %d KB operations each, shared PFS file\n\n", procs, ops, opBytes>>10)
	fmt.Printf("%-10s %10s   %s\n", "mode", "wall", "what it buys / costs")
	notes := map[pio.Mode]string{
		pio.ModeUnix:   "independent pointers; no coordination, no shared order",
		pio.ModeLog:    "atomic shared append; every op serializes on the pointer",
		pio.ModeSync:   "lockstep rank-ordered layout; slowest node gates each op",
		pio.ModeRecord: "round-robin fixed records; coordination-free and ordered",
		pio.ModeGlobal: "one disk read, broadcast to all (read-only)",
	}
	for _, mode := range []pio.Mode{pio.ModeUnix, pio.ModeLog, pio.ModeSync, pio.ModeRecord, pio.ModeGlobal} {
		wall, err := run(m, procs, ops, opBytes, mode)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s %9.2fs   %s\n", mode, wall, notes[mode])
	}
	fmt.Println("\nEach mode trades coordination for ordering guarantees differently —")
	fmt.Println("the portability problem the paper's §5 complains about.")
}

func run(m *machine.Config, procs, ops int, opBytes int64, mode pio.Mode) (float64, error) {
	rep, err := core.Run(nil, core.Spec{Machine: m, Procs: procs}, func(sys *core.System) (core.Body, error) {
		f, err := sys.FS.Create("modes.demo", sys.DefaultLayout(), int64(procs*ops)*opBytes)
		if err != nil {
			return nil, err
		}
		handles := make([]*pio.Handle, procs)
		var sf *pio.SharedFile
		return func(p *sim.Proc, rank int) {
			handles[rank] = sys.Client(rank, m.Native).Open(p, f)
			sys.Comm.Barrier(p, rank)
			if rank == 0 {
				s, serr := pio.NewSharedFile(sys.Comm, handles, mode, opBytes)
				if serr != nil {
					panic(serr)
				}
				sf = s
			}
			sys.Comm.Barrier(p, rank)
			for i := 0; i < ops; i++ {
				if mode == pio.ModeGlobal {
					sf.Read(p, rank, opBytes)
				} else {
					sf.Write(p, rank, opBytes)
				}
			}
		}, nil
	})
	return rep.ExecSec, err
}
