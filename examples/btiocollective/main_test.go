package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestRunSmoke runs the example at its default arguments and compares its
// stdout with testdata/stdout.golden. Regenerate the golden with
//
//	go run ./examples/btiocollective > examples/btiocollective/testdata/stdout.golden
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
