// Package exp is the benchmark harness: one experiment per table and
// figure of the paper's evaluation section. Each experiment re-runs the
// corresponding simulations and prints the same rows or series the paper
// reports, so the repository's EXPERIMENTS.md (paper vs. measured) can be
// regenerated from scratch with cmd/ioexp or the bench suite.
package exp

import (
	"context"
	"fmt"
	"io"
	"sort"

	"pario/internal/core"
	"pario/internal/request"
)

// Scale selects the experiment size.
type Scale int

const (
	// Quick shrinks inputs so an experiment finishes in well under a
	// second — for tests and smoke runs. Shapes are preserved; absolute
	// numbers are not comparable to the paper.
	Quick Scale = iota
	// Full reproduces the paper's problem sizes and sweeps.
	Full
)

func (s Scale) String() string {
	if s == Full {
		return "full"
	}
	return "quick"
}

// Experiment regenerates one paper artifact.
type Experiment struct {
	// ID is the artifact name: "table2" ... "table5", "fig1" ... "fig7".
	ID string
	// Title is the paper's caption, abbreviated.
	Title string
	// Expect summarizes the shape the paper reports, against which the
	// printed output should be read.
	Expect string
	// Run executes the experiment, writing its rows/series to w.
	Run func(w io.Writer, s Scale) error
	// Plan, set for the artifacts that are app runs, returns the artifact's
	// runs at scale s as canonical requests — each point's key is the /run
	// key that reproduces it — and the formatter that prints their reports,
	// given in list order. register derives Run from it. The artifacts
	// that drive the stack below the app layer set Run alone.
	Plan func(s Scale) ([]request.Request, func(w io.Writer, reps []core.Report))
}

var registry = map[string]*Experiment{}

// register adds an experiment; duplicate IDs are a programming error.
func register(e *Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("exp: duplicate experiment " + e.ID)
	}
	if e.Plan != nil {
		e.Run = func(w io.Writer, s Scale) error {
			reqs, format := e.Plan(s)
			reps, err := sweep(reqs, func(r request.Request) (core.Report, error) {
				return request.Run(context.Background(), r)
			})
			if err != nil {
				return err
			}
			format(w, reps)
			return nil
		}
	}
	registry[e.ID] = e
}

// at returns r at scale s: r itself at Full scale, and at Quick scale its
// stand-in — a 48-function SCF deck, a 512-point FFT with a 512 KB buffer,
// a 16-point BTIO grid with 3 dumps, a 256-point AST grid with 2 dumps of
// 2 arrays.
func at(s Scale, r request.Request) request.Request {
	if s == Full {
		return r
	}
	switch r.App {
	case "scf11", "scf30":
		r.N = 48
	case "fft":
		r.N, r.BufferKB = 512, 512
	case "btio":
		r.N, r.Dumps = 16, 3
	case "ast":
		r.N, r.Arrays, r.Dumps = 256, 2, 2
	}
	return r
}

// ByID returns the experiment with the given ID, or nil.
func ByID(id string) *Experiment { return registry[id] }

// All returns every experiment in artifact order (tables 2-3, figures 1-7,
// tables 4-5).
func All() []*Experiment {
	order := []string{
		"table2", "table3",
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
		"table4", "table5",
	}
	var out []*Experiment
	seen := map[string]bool{}
	for _, id := range order {
		if e := registry[id]; e != nil {
			out = append(out, e)
			seen[id] = true
		}
	}
	// Any extras (ablations) go after, sorted.
	var extra []string
	for id := range registry {
		if !seen[id] {
			extra = append(extra, id)
		}
	}
	sort.Strings(extra)
	for _, id := range extra {
		out = append(out, registry[id])
	}
	return out
}

// hms renders seconds compactly.
func hms(sec float64) string {
	switch {
	case sec >= 3600:
		return fmt.Sprintf("%.2fh", sec/3600)
	case sec >= 60:
		return fmt.Sprintf("%.1fm", sec/60)
	default:
		return fmt.Sprintf("%.1fs", sec)
	}
}
