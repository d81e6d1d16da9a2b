package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"pario/internal/machine"
	"pario/internal/trace"
)

// TestRunSmoke runs the example at its default arguments and compares its
// stdout with testdata/stdout.golden. Regenerate the golden with
//
//	go run ./examples/quickstart > examples/quickstart/testdata/stdout.golden
func TestRunSmoke(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "stdout.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != string(want) {
		t.Fatalf("stdout differs from testdata/stdout.golden; got:\n%s", got)
	}
}

// TestRunWorkload smokes the quickstart workload and checks the headline
// it demonstrates: the PASSION interface beats Fortran I/O on the same
// write-then-reread pattern.
func TestRunWorkload(t *testing.T) {
	cfg, err := machine.ParagonLarge(12)
	if err != nil {
		t.Fatal(err)
	}
	fortran, err := runWorkload(cfg, cfg.Fortran)
	if err != nil {
		t.Fatal(err)
	}
	passion, err := runWorkload(cfg, cfg.Passion)
	if err != nil {
		t.Fatal(err)
	}
	for name, rep := range map[string]interface {
		EventCount() uint64
	}{"fortran": fortran, "passion": passion} {
		if rep.EventCount() == 0 {
			t.Fatalf("%s: no simulation events", name)
		}
	}
	if fortran.Trace.Get(trace.Read).Count == 0 {
		t.Fatal("no reads recorded")
	}
	if passion.ExecSec >= fortran.ExecSec {
		t.Fatalf("PASSION (%.2fs) should beat Fortran I/O (%.2fs)",
			passion.ExecSec, fortran.ExecSec)
	}
}
