package exp

import (
	"fmt"
	"io"

	"pario/internal/chart"
	"pario/internal/core"
	"pario/internal/request"
)

// btio is the canonical BTIO request for class cls at scale s.
func btio(s Scale, cls string, procs int, collective bool) request.Request {
	return at(s, request.Request{App: "btio", Procs: procs, Class: cls, Opt: collective})
}

func init() {
	register(&Experiment{
		ID:    "fig6",
		Title: "BTIO Class A on the SP-2: I/O and total time vs. processors",
		Expect: "unoptimized I/O time is high and erratic (hump near 36 procs); two-phase I/O is " +
			"flat and low; total time drops ~46%/49% at 36/64 procs",
		Plan: func(s Scale) ([]request.Request, func(io.Writer, []core.Report)) {
			procs := []int{4, 9, 16, 25, 36, 49, 64}
			if s == Quick {
				procs = []int{4, 16}
			}
			var reqs []request.Request
			for _, p := range procs {
				reqs = append(reqs, btio(s, "A", p, false), btio(s, "A", p, true))
			}
			return reqs, func(w io.Writer, reps []core.Report) {
				fmt.Fprintf(w, "%6s | %10s %10s | %10s %10s | %8s\n", "procs",
					"unopt I/O", "unopt tot", "opt I/O", "opt tot", "tot red.")
				ch := &chart.Chart{
					Title: "I/O time vs compute nodes (log y)", YLabel: "procs",
					LogY:   true,
					Series: []chart.Series{{Name: "unopt"}, {Name: "two-phase"}},
				}
				for i, p := range procs {
					un, op := reps[2*i], reps[2*i+1]
					red := 100 * (1 - op.ExecSec/un.ExecSec)
					fmt.Fprintf(w, "%6d | %10s %10s | %10s %10s | %7.1f%%\n", p,
						hms(un.IOMaxSec), hms(un.ExecSec), hms(op.IOMaxSec), hms(op.ExecSec), red)
					ch.XLabels = append(ch.XLabels, fmt.Sprint(p))
					ch.Series[0].Values = append(ch.Series[0].Values, un.IOMaxSec)
					ch.Series[1].Values = append(ch.Series[1].Values, op.IOMaxSec)
				}
				fmt.Fprintf(w, "\n%s", ch.Render(10))
			}
		},
	})

	register(&Experiment{
		ID:     "fig7",
		Title:  "BTIO I/O bandwidths, Class A and Class B",
		Expect: "original 0.97-1.5 MB/s; optimized 6.6-31.4 MB/s",
		Plan: func(s Scale) ([]request.Request, func(io.Writer, []core.Report)) {
			classes := []string{"A", "B"}
			procs := []int{16, 36, 64}
			if s == Quick {
				procs = []int{4, 16}
				classes = classes[:1]
			}
			var reqs []request.Request
			for _, cls := range classes {
				for _, p := range procs {
					un, op := btio(s, cls, p, false), btio(s, cls, p, true)
					if cls == "B" {
						// Class B dumps are statistically identical; 8 of 40
						// give the same steady-state bandwidth at a fifth of
						// the cost.
						un.Dumps, op.Dumps = 8, 8
					}
					reqs = append(reqs, un, op)
				}
			}
			return reqs, func(w io.Writer, reps []core.Report) {
				fmt.Fprintf(w, "%8s %6s | %14s %14s\n", "class", "procs", "orig MB/s", "opt MB/s")
				name := "%s"
				if s == Quick {
					name = "%s(quick)"
				}
				for i := 0; i < len(reqs); i += 2 {
					fmt.Fprintf(w, "%8s %6d | %14.2f %14.2f\n",
						fmt.Sprintf(name, reqs[i].Class), reqs[i].Procs, reps[i].BandwidthMBs(), reps[i+1].BandwidthMBs())
				}
			}
		},
	})
}
