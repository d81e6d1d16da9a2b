package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunSmoke runs the example at its default arguments and compares its
// stdout with testdata/stdout.golden. Regenerate the golden with
//
//	go run ./examples/pfsmodes > examples/pfsmodes/testdata/stdout.golden
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

// TestRunModes checks the cost ordering the example prints prose about,
// on the walls it prints: the serializing M_LOG mode cannot beat the
// coordination-free M_RECORD mode.
func TestRunModes(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf); err != nil {
		t.Fatal(err)
	}
	walls := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		var mode string
		var wall float64
		if n, _ := fmt.Sscanf(line, "%s %fs", &mode, &wall); n == 2 {
			walls[mode] = wall
		}
	}
	if len(walls) != 5 {
		t.Fatalf("parsed %d mode walls, want 5: %v", len(walls), walls)
	}
	if walls["M_LOG"] < walls["M_RECORD"] {
		t.Fatalf("M_LOG (%g) beat M_RECORD (%g): serialization should cost",
			walls["M_LOG"], walls["M_RECORD"])
	}
}
