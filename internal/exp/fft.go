package exp

import (
	"fmt"
	"io"

	"pario/internal/chart"
	"pario/internal/core"
	"pario/internal/request"
)

func init() {
	register(&Experiment{
		ID:    "fig5",
		Title: "FFT on the small Paragon: I/O and total time (1.5 GB total I/O)",
		Expect: "unoptimized I/O time rises beyond 4 procs (2 I/O nodes) / 8 procs (4 I/O nodes); " +
			"the layout-optimized version on 2 I/O nodes beats the unoptimized one on 4 for all P; " +
			"I/O is 90-95% of execution",
		Plan: func(s Scale) ([]request.Request, func(io.Writer, []core.Report)) {
			procs := []int{1, 2, 4, 8, 16, 32}
			if s == Quick {
				procs = []int{1, 2, 4, 8}
			}
			// The figure's three curves, per processor count.
			var reqs []request.Request
			for _, p := range procs {
				for _, v := range []request.Request{{IONodes: 2}, {IONodes: 4}, {IONodes: 2, Opt: true}} {
					v.App, v.Procs = "fft", p
					reqs = append(reqs, at(s, v))
				}
			}
			return reqs, func(w io.Writer, reps []core.Report) {
				fmt.Fprintf(w, "%6s | %10s %10s | %10s %10s | %10s %10s\n", "procs",
					"un2 I/O", "un2 exec", "un4 I/O", "un4 exec", "opt2 I/O", "opt2 exec")
				ch := &chart.Chart{
					Title: "I/O time vs compute nodes", YLabel: "procs",
					Series: []chart.Series{{Name: "unopt-2io"}, {Name: "unopt-4io"}, {Name: "opt-2io"}},
				}
				for i, p := range procs {
					un2, un4, opt2 := reps[3*i], reps[3*i+1], reps[3*i+2]
					fmt.Fprintf(w, "%6d | %10s %10s | %10s %10s | %10s %10s\n", p,
						hms(un2.IOMaxSec), hms(un2.ExecSec), hms(un4.IOMaxSec), hms(un4.ExecSec),
						hms(opt2.IOMaxSec), hms(opt2.ExecSec))
					ch.XLabels = append(ch.XLabels, fmt.Sprint(p))
					ch.Series[0].Values = append(ch.Series[0].Values, un2.IOMaxSec)
					ch.Series[1].Values = append(ch.Series[1].Values, un4.IOMaxSec)
					ch.Series[2].Values = append(ch.Series[2].Values, opt2.IOMaxSec)
				}
				fmt.Fprintf(w, "\n%s", ch.Render(10))
			}
		},
	})
}
