package exp

import (
	"fmt"
	"io"

	"pario/internal/core"
	"pario/internal/machine"
	"pario/internal/pio"
	"pario/internal/workload"
)

func init() {
	register(&Experiment{
		ID:    "patterns",
		Title: "synthetic access patterns x I/O interfaces (workload generator)",
		Expect: "microbenchmark behind the paper's narrative: per-call overhead dominates small " +
			"strided/random access; sequential streams approach the disk rate; the interface " +
			"hierarchy (fortran > passion > native per-call cost) holds across patterns",
		Run: func(w io.Writer, s Scale) error {
			m, err := machine.ParagonLarge(12)
			if err != nil {
				return err
			}
			total, req := int64(64<<20), int64(4<<10)
			procs := 8
			if s == Quick {
				total, procs = 4<<20, 2
			}
			patterns := []workload.Spec{
				{Pattern: workload.Sequential, TotalBytes: total, RequestBytes: 64 << 10},
				{Pattern: workload.Strided, TotalBytes: total, RequestBytes: req, Stride: 60 << 10},
				{Pattern: workload.Random, TotalBytes: total, RequestBytes: req, Seed: 11},
				{Pattern: workload.Hotspot, TotalBytes: total, RequestBytes: req, Seed: 13},
			}
			ifaces := []pio.ClientParams{m.Fortran, m.Passion, m.Native}
			type job struct {
				reqs  []workload.Request // generated once, replayed read-only
				iface pio.ClientParams
			}
			var jobs []job
			for _, spec := range patterns {
				reqs, err := spec.Requests()
				if err != nil {
					return err
				}
				for _, iface := range ifaces {
					jobs = append(jobs, job{reqs, iface})
				}
			}
			reps, err := sweep(jobs, func(j job) (core.Report, error) {
				return workload.Replay(m, j.iface, procs, j.reqs)
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-12s | %12s %12s %12s\n", "pattern", "fortran", "passion", "native")
			i := 0
			for _, spec := range patterns {
				fmt.Fprintf(w, "%-12s |", spec.Pattern)
				for range ifaces {
					fmt.Fprintf(w, " %12s", hms(reps[i].IOMaxSec))
					i++
				}
				fmt.Fprintln(w)
			}
			return nil
		},
	})
}
