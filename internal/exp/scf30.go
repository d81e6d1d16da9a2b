package exp

import (
	"fmt"
	"io"

	"pario/internal/core"
	"pario/internal/request"
)

// scf30 is the canonical SCF 3.0 request on deck at scale s with cachedPct
// of the integrals on disk; 0% is the direct version.
func scf30(s Scale, deck string, procs, nio, cachedPct int) request.Request {
	r := request.Request{App: "scf30", Procs: procs, IONodes: nio, Input: deck, CachedPct: cachedPct}
	if cachedPct == 0 {
		r.Version = "direct"
	}
	return at(s, r)
}

func init() {
	register(&Experiment{
		ID:    "fig4",
		Title: "SCF 3.0 MEDIUM: %% cached integrals x processors x I/O partition",
		Expect: "at 0% cached adding processors helps a lot; at 100% cached it barely matters; " +
			"the I/O partition size (16 vs 64) is nearly irrelevant",
		Plan: func(s Scale) ([]request.Request, func(io.Writer, []core.Report)) {
			procs := []int{32, 64, 128, 256}
			cached := []int{0, 25, 50, 75, 90, 100}
			if s == Quick {
				procs = []int{4, 16}
				cached = []int{0, 50, 100}
			}
			nios := []int{16, 64}
			var reqs []request.Request
			for _, nio := range nios {
				for _, c := range cached {
					for _, p := range procs {
						reqs = append(reqs, scf30(s, "MEDIUM", p, nio, c))
					}
				}
			}
			return reqs, func(w io.Writer, reps []core.Report) {
				i := 0
				for _, nio := range nios {
					fmt.Fprintf(w, "%d I/O nodes — execution time:\n", nio)
					fmt.Fprintf(w, "  %8s", "cached%")
					for _, p := range procs {
						fmt.Fprintf(w, " %10s", fmt.Sprintf("P=%d", p))
					}
					fmt.Fprintln(w)
					for _, c := range cached {
						fmt.Fprintf(w, "  %8d", c)
						for range procs {
							fmt.Fprintf(w, " %10s", hms(reps[i].ExecSec))
							i++
						}
						fmt.Fprintln(w)
					}
					fmt.Fprintln(w)
				}
			}
		},
	})
}
