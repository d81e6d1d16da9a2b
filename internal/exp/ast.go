package exp

import (
	"fmt"
	"io"

	"pario/internal/core"
	"pario/internal/request"
)

func init() {
	register(&Experiment{
		ID:    "table4",
		Title: "AST 2Kx2K: execution time, unoptimized (Chameleon) vs optimized (two-phase)",
		Expect: "optimized is several times faster at every processor count; the unoptimized time " +
			"falls with processors; 64 I/O nodes barely beat 16; the optimized column flattens at " +
			"high processor counts",
		Plan: func(s Scale) ([]request.Request, func(io.Writer, []core.Report)) {
			procs := []int{16, 32, 64, 128}
			if s == Quick {
				procs = []int{2, 4, 8}
			}
			reqs := make([]request.Request, 0, 4*len(procs))
			for _, p := range procs {
				for _, opt := range []bool{false, true} {
					for _, nio := range []int{16, 64} {
						reqs = append(reqs, at(s, request.Request{App: "ast", Procs: p, IONodes: nio, Opt: opt}))
					}
				}
			}
			return reqs, func(w io.Writer, reps []core.Report) {
				fmt.Fprintf(w, "%6s | %12s %12s | %12s %12s\n", "procs",
					"unopt 16io", "unopt 64io", "opt 16io", "opt 64io")
				for i, p := range procs {
					fmt.Fprintf(w, "%6d | %12s %12s | %12s %12s\n", p,
						hms(reps[4*i].ExecSec), hms(reps[4*i+1].ExecSec),
						hms(reps[4*i+2].ExecSec), hms(reps[4*i+3].ExecSec))
				}
			}
		},
	})
}
