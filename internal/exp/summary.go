package exp

import (
	"fmt"
	"io"

	"pario/internal/core"
	"pario/internal/request"
)

// improvement returns the fractional execution-time reduction going from
// base to better.
func improvement(base, better float64) float64 {
	if base <= 0 {
		return 0
	}
	return 1 - better/base
}

func init() {
	register(&Experiment{
		ID:    "table5",
		Title: "Applications and effective optimization techniques",
		Expect: "SCF 1.1: interface+prefetch; SCF 3.0: interface+prefetch+balanced I/O; " +
			"FFT: file layout; BTIO: collective I/O; AST: collective I/O",
		Plan: func(s Scale) ([]request.Request, func(io.Writer, []core.Report)) {
			// Each cell is measured: an optimization is "effective" for an
			// application when enabling it cuts execution time by >= 10%
			// in a representative configuration. Quick-scale inputs keep
			// this cheap; the verdicts match the full-scale runs.
			deck, procs := "LARGE", 4
			if s == Full {
				deck, procs = "MEDIUM", 8 // full-scale check stays affordable
			}
			var reqs []request.Request
			for _, v := range []string{"original", "passion", "prefetch"} {
				reqs = append(reqs, scf11(s, deck, v, procs, 16)) // 0-2
			}
			// 3: all-recompute, 4: well balanced.
			reqs = append(reqs, scf30(s, deck, procs, 16, 0), scf30(s, deck, procs, 16, 90))
			for _, opt := range []bool{false, true} {
				r := at(s, request.Request{App: "fft", Procs: 4, IONodes: 2, Opt: opt}) // 5-6
				if s == Full {
					r.N, r.BufferKB = 2048, 4096
				}
				reqs = append(reqs, r)
			}
			for _, opt := range []bool{false, true} {
				r := btio(s, "A", 16, opt) // 7-8
				if s == Full {
					r.Dumps = 10
				}
				reqs = append(reqs, r)
			}
			for _, opt := range []bool{false, true} {
				reqs = append(reqs, at(Quick, request.Request{App: "ast", Procs: 8, IONodes: 16, Opt: opt})) // 9-10
			}
			return reqs, printTable5
		},
	})
}

// printTable5 prints Table 5's verdicts from its eleven runs.
func printTable5(w io.Writer, reps []core.Report) {
	const threshold = 0.10
	// SCF 1.1: interface and prefetch.
	scf11Iface := improvement(reps[0].ExecSec, reps[1].ExecSec) >= threshold
	scf11Pref := improvement(reps[1].ExecSec, reps[2].ExecSec) >= threshold
	// SCF 3.0: interface/prefetch inherited from the same runtime.
	// "Balanced I/O" (§4.3) is the cached-vs-recompute ratio knob:
	// effective when choosing a good ratio beats a bad one.
	scf30Bal := improvement(reps[3].ExecSec, reps[4].ExecSec) >= threshold
	// FFT: file layout.
	fftLayout := improvement(reps[5].ExecSec, reps[6].ExecSec) >= threshold
	// BTIO: collective I/O.
	btioColl := improvement(reps[7].ExecSec, reps[8].ExecSec) >= threshold
	// AST: collective I/O.
	astColl := improvement(reps[9].ExecSec, reps[10].ExecSec) >= threshold

	tick := func(b bool) string {
		if b {
			return "x"
		}
		return "-"
	}
	fmt.Fprintf(w, "%-8s %12s %8s %11s %12s %10s\n",
		"app", "collective", "layout", "interface", "prefetching", "balanced")
	fmt.Fprintf(w, "%-8s %12s %8s %11s %12s %10s\n",
		"SCF 1.1", "-", "-", tick(scf11Iface), tick(scf11Pref), "-")
	fmt.Fprintf(w, "%-8s %12s %8s %11s %12s %10s\n",
		"SCF 3.0", "-", "-", tick(scf11Iface), tick(scf11Pref), tick(scf30Bal))
	fmt.Fprintf(w, "%-8s %12s %8s %11s %12s %10s\n",
		"FFT", "-", tick(fftLayout), "-", "-", "-")
	fmt.Fprintf(w, "%-8s %12s %8s %11s %12s %10s\n",
		"BTIO", tick(btioColl), "-", "-", "-", "-")
	fmt.Fprintf(w, "%-8s %12s %8s %11s %12s %10s\n",
		"AST", tick(astColl), "-", "-", "-", "-")
}
