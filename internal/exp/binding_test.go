package exp

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"pario/internal/request"
)

// belowApps lists the artifacts that are not app runs, each with the
// file that builds them: they drive core, pio and workload directly (modes,
// sieve, patterns, degraded) or capture and replay in-memory traces
// (tracerep). They alone may build a machine.
var belowApps = map[string]string{
	"modes": "extras.go", "sieve": "extras.go", "patterns": "patterns.go",
	"degraded": "degraded.go", "tracerep": "tracerep.go",
}

// TestAppRunsBindThroughRequests keeps internal/request the one binding of
// app runs: only the files of belowApps import the machine constructors,
// so a hand-built machine cannot creep back in beside the plans. (No file
// of this package imports an app package: the module-wide guard in the
// root guard_test.go keeps that.)
func TestAppRunsBindThroughRequests(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	below := map[string]bool{}
	for _, f := range belowApps {
		below[f] = true
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if path == "pario/internal/machine" && !below[name] {
				t.Errorf("%s imports %s: only the artifacts below the app layer build machines", name, path)
			}
		}
	}
}

// TestPlansAreCanonical checks that every app-run artifact lists its runs
// in canonical form at both scales, so each point's key is the /run cache
// key that reproduces it, and that the artifacts without a plan are
// exactly those of belowApps.
func TestPlansAreCanonical(t *testing.T) {
	for _, e := range All() {
		if e.Plan == nil {
			if belowApps[e.ID] == "" {
				t.Errorf("%s has no request plan and is not listed as below the app layer", e.ID)
			}
			continue
		}
		if belowApps[e.ID] != "" {
			t.Errorf("%s is listed as below the app layer but has a request plan", e.ID)
		}
		for _, s := range []Scale{Quick, Full} {
			reqs, _ := e.Plan(s)
			if len(reqs) == 0 {
				t.Errorf("%s/%s: empty plan", e.ID, s)
			}
			for i, r := range reqs {
				c, err := request.Canonicalize(r)
				if err != nil {
					t.Errorf("%s/%s point %d %+v: %v", e.ID, s, i, r, err)
				} else if c != r {
					t.Errorf("%s/%s point %d is not canonical:\n  listed %+v\n  canon  %+v", e.ID, s, i, r, c)
				}
			}
		}
	}
}
