package main

import (
	"testing"

	"pario/internal/machine"
	"pario/internal/pio"
	"pario/internal/workload"
)

func TestParseSize(t *testing.T) {
	cases := []struct {
		in   string
		want int64
	}{
		{"64", 64},
		{"4K", 4 << 10},
		{"16M", 16 << 20},
		{"1G", 1 << 30},
		{" 2m ", 2 << 20},
	}
	for _, c := range cases {
		if got := parseSize(c.in); got != c.want {
			t.Errorf("parseSize(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestReplaySmokes replays a small workload under each of the machine's
// interfaces — the program's main loop minus the flag parsing.
func TestReplaySmokes(t *testing.T) {
	cfg, err := machine.ParagonLarge(12)
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.Spec{
		Pattern:      workload.Strided,
		TotalBytes:   1 << 20,
		RequestBytes: 64 << 10,
		Stride:       32 << 10,
		Seed:         1,
	}
	reqs, err := spec.Requests()
	if err != nil {
		t.Fatal(err)
	}
	for _, iface := range []pio.ClientParams{cfg.Fortran, cfg.Passion, cfg.Native} {
		rep, err := workload.Replay(cfg, iface, 2, reqs)
		if err != nil {
			t.Fatalf("%s: %v", iface.Name, err)
		}
		if rep.BytesRead <= 0 {
			t.Fatalf("%s: replay read nothing", iface.Name)
		}
		if rep.ExecSec <= 0 {
			t.Fatalf("%s: non-positive exec time", iface.Name)
		}
	}
}
