package exp

import (
	"fmt"
	"io"

	"pario/internal/chart"
	"pario/internal/core"
	"pario/internal/request"
)

// scf11 is the canonical SCF 1.1 request on deck at scale s.
func scf11(s Scale, deck, version string, procs, nio int) request.Request {
	return at(s, request.Request{App: "scf11", Procs: procs, IONodes: nio, Input: deck, Version: version})
}

// printIOSummary writes the Tables 2-3 layout for one run.
func printIOSummary(w io.Writer, reps []core.Report) {
	rep := reps[0]
	// The paper's percentages are taken against execution time aggregated
	// across the processors.
	fmt.Fprint(w, rep.Trace.Table(rep.ExecSec*float64(rep.Procs)))
	fmt.Fprintf(w, "\nTotal I/O time per process: %s (exec %s, I/O %.1f%% of exec)\n",
		hms(rep.IOMaxSec), hms(rep.ExecSec), rep.IOPctOfExec())
}

func init() {
	register(&Experiment{
		ID:    "table2",
		Title: "I/O summary, original SCF 1.1, LARGE input, 4 processors",
		Expect: "aggregated over 4 procs: ~566K reads / 37 GB / ~60,284 s; ~40K writes / 2.5 GB; " +
			"~1K seeks; I/O ~54% of exec; total I/O 4.4 h per process",
		Plan: func(s Scale) ([]request.Request, func(io.Writer, []core.Report)) {
			return []request.Request{scf11(s, "LARGE", "original", 4, 12)}, printIOSummary
		},
	})

	register(&Experiment{
		ID:    "table3",
		Title: "I/O summary, PASSION SCF 1.1, LARGE input, 4 processors",
		Expect: "reads drop to ~33,805 s (-45%), writes to ~1,381 s (-50%), seeks explode to " +
			"~604K cheap calls; total I/O 2.5 h per process",
		Plan: func(s Scale) ([]request.Request, func(io.Writer, []core.Report)) {
			return []request.Request{scf11(s, "LARGE", "passion", 4, 12)}, printIOSummary
		},
	})

	register(&Experiment{
		ID:    "fig1",
		Title: "SCF 1.1 optimization tuples I-VII on SMALL/MEDIUM/LARGE",
		Expect: "software factors (interface, prefetch: I->II->III) dominate; system factors " +
			"(procs, memory, stripe unit, I/O nodes: IV-VII) matter much less at small P",
		Plan: func(s Scale) ([]request.Request, func(io.Writer, []core.Report)) {
			// The paper's tuples (V, P, M, Su, Sf); see Figure 1 caption. M
			// and Su are in KB; 0 spells their default, 64.
			type tuple struct {
				name         string
				v            string
				p, m, su, sf int
			}
			tuples := []tuple{
				{"I   (O,4,64,64,12)", "original", 4, 0, 0, 12},
				{"II  (P,4,64,64,12)", "passion", 4, 0, 0, 12},
				{"III (F,4,64,64,12)", "prefetch", 4, 0, 0, 12},
				{"IV  (F,32,256,64,12)", "prefetch", 32, 256, 0, 12},
				{"V   (F,32,256,64,16)", "prefetch", 32, 256, 0, 16},
				{"VI  (F,32,256,128,12)", "prefetch", 32, 256, 128, 12},
				{"VII (F,32,256,128,16)", "prefetch", 32, 256, 128, 16},
			}
			decks := []string{"SMALL", "MEDIUM", "LARGE"}
			if s == Quick {
				decks = decks[:1]
			}
			var reqs []request.Request
			for _, deck := range decks {
				for _, tp := range tuples {
					r := scf11(s, deck, tp.v, tp.p, tp.sf)
					r.MemoryKB, r.StripeUnitKB = tp.m, tp.su
					reqs = append(reqs, r)
				}
			}
			return reqs, func(w io.Writer, reps []core.Report) {
				for i, deck := range decks {
					n := reqs[i*len(tuples)].N
					if n == 0 {
						n = request.DeckN(deck)
					}
					fmt.Fprintf(w, "input %s (N=%d):\n", deck, n)
					fmt.Fprintf(w, "  %-24s %12s %12s\n", "tuple", "exec", "I/O")
					for k, tp := range tuples {
						rep := reps[i*len(tuples)+k]
						fmt.Fprintf(w, "  %-24s %12s %12s\n", tp.name, hms(rep.ExecSec), hms(rep.IOMaxSec))
					}
					fmt.Fprintln(w)
				}
			}
		},
	})

	register(&Experiment{
		ID:    "fig2",
		Title: "SCF 1.1 LARGE: exec and I/O time vs. compute nodes",
		Expect: "optimized (PASSION+prefetch, 16 I/O nodes) wins below ~64 procs; beyond that the " +
			"unoptimized version on 64 I/O nodes wins (architecture must catch up)",
		Plan: func(s Scale) ([]request.Request, func(io.Writer, []core.Report)) {
			procs := []int{4, 8, 16, 32, 64, 128, 256}
			if s == Quick {
				procs = []int{4, 16, 64}
			}
			var reqs []request.Request
			for _, p := range procs {
				reqs = append(reqs, scf11(s, "LARGE", "original", p, 64), scf11(s, "LARGE", "prefetch", p, 16))
			}
			return reqs, func(w io.Writer, reps []core.Report) {
				fmt.Fprintf(w, "%6s %16s %16s %16s %16s\n", "procs",
					"unopt64 exec", "unopt64 I/O", "opt16 exec", "opt16 I/O")
				ch := &chart.Chart{
					Title: "execution time vs compute nodes (log y)", YLabel: "procs",
					LogY:   true,
					Series: []chart.Series{{Name: "unopt64"}, {Name: "opt16"}},
				}
				for i, p := range procs {
					un, op := reps[2*i], reps[2*i+1]
					fmt.Fprintf(w, "%6d %16s %16s %16s %16s\n", p,
						hms(un.ExecSec), hms(un.IOMaxSec), hms(op.ExecSec), hms(op.IOMaxSec))
					ch.XLabels = append(ch.XLabels, fmt.Sprint(p))
					ch.Series[0].Values = append(ch.Series[0].Values, un.ExecSec)
					ch.Series[1].Values = append(ch.Series[1].Values, op.ExecSec)
				}
				fmt.Fprintf(w, "\n%s", ch.Render(10))
			}
		},
	})

	register(&Experiment{
		ID:    "fig3",
		Title: "SCF 1.1 LARGE: effect of the number of I/O nodes",
		Expect: "with few procs the I/O partition barely matters; with many procs, 64 I/O nodes " +
			"clearly beat 16 and 12 (reduced contention)",
		Plan: func(s Scale) ([]request.Request, func(io.Writer, []core.Report)) {
			procs := []int{16, 64, 256}
			if s == Quick {
				procs = []int{4, 16}
			}
			nios := []int{12, 16, 64}
			var reqs []request.Request
			for _, p := range procs {
				for _, nio := range nios {
					reqs = append(reqs, scf11(s, "LARGE", "passion", p, nio))
				}
			}
			return reqs, func(w io.Writer, reps []core.Report) {
				fmt.Fprintf(w, "%6s", "procs")
				for _, nio := range nios {
					fmt.Fprintf(w, " %10s %10s", fmt.Sprintf("%dio exec", nio), fmt.Sprintf("%dio I/O", nio))
				}
				fmt.Fprintln(w)
				for i, p := range procs {
					fmt.Fprintf(w, "%6d", p)
					for _, rep := range reps[i*len(nios) : (i+1)*len(nios)] {
						fmt.Fprintf(w, " %10s %10s", hms(rep.ExecSec), hms(rep.IOMaxSec))
					}
					fmt.Fprintln(w)
				}
			}
		},
	})

	register(&Experiment{
		ID:    "scfmode",
		Title: "SCF 1.1 disk-based vs direct (recompute) vs processors",
		Expect: "paper §5 (prose): at small processor counts users run the disk-based version; " +
			"at large counts the I/O version collapses and they switch to the re-compute version",
		Plan: func(s Scale) ([]request.Request, func(io.Writer, []core.Report)) {
			procs := []int{4, 16, 64, 256}
			if s == Quick {
				procs = []int{2, 8, 32}
			}
			var reqs []request.Request
			for _, p := range procs {
				reqs = append(reqs, scf11(s, "LARGE", "original", p, 16), scf11(s, "LARGE", "direct", p, 16))
			}
			return reqs, func(w io.Writer, reps []core.Report) {
				fmt.Fprintf(w, "%6s %16s %16s %12s\n", "procs", "disk-based exec", "direct exec", "winner")
				for i, p := range procs {
					disk, direct := reps[2*i], reps[2*i+1]
					winner := "disk-based"
					if direct.ExecSec < disk.ExecSec {
						winner = "direct"
					}
					fmt.Fprintf(w, "%6d %16s %16s %12s\n", p, hms(disk.ExecSec), hms(direct.ExecSec), winner)
				}
			}
		},
	})
}
