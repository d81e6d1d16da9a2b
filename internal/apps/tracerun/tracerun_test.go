package tracerun

import (
	"strings"
	"testing"

	"pario/internal/core"
	"pario/internal/machine"
	"pario/internal/trace"
)

func paragonLarge(t *testing.T) *machine.Config {
	t.Helper()
	m, err := machine.ParagonLarge(12)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// run replays cfg's trace on m, one rank per trace rank.
func run(m *machine.Config, cfg Config) (core.Report, error) {
	procs := 1
	if cfg.Trace != nil {
		procs = len(cfg.Trace.Ranks)
	}
	return core.Run(nil, core.Spec{Machine: m, Procs: procs}, cfg.Setup)
}

func TestRunRejectsIncompleteConfig(t *testing.T) {
	tr := trace.AppendStorm(2, 2, 0)
	for name, c := range map[string]struct {
		m   *machine.Config
		cfg Config
	}{
		"nil machine": {nil, Config{Trace: tr}},
		"nil trace":   {paragonLarge(t), Config{}},
	} {
		if _, err := run(c.m, c.cfg); err == nil || !strings.Contains(err.Error(), "incomplete") {
			t.Errorf("%s: err = %v, want an incomplete spec or config", name, err)
		}
	}
}

func TestRunRejectsMoreRanksThanComputeNodes(t *testing.T) {
	m := paragonLarge(t)
	if _, err := run(m, Config{Trace: trace.AppendStorm(m.NumCompute+1, 1, 0)}); err == nil {
		t.Fatal("a trace with more ranks than compute nodes ran")
	}
	_, err := core.Run(nil, core.Spec{Machine: m, Procs: 3}, Config{Trace: trace.AppendStorm(2, 1, 0)}.Setup)
	if err == nil || !strings.Contains(err.Error(), "tracerun: trace has") {
		t.Fatalf("err = %v, want a rank-count rejection", err)
	}
}

func TestRunRejectsInvalidTrace(t *testing.T) {
	bad := &trace.Trace{Ranks: [][]trace.Event{{{Off: -1, Bytes: 4096}}}}
	if _, err := run(paragonLarge(t), Config{Trace: bad}); err == nil || !strings.Contains(err.Error(), "bad extent") {
		t.Fatalf("err = %v, want the trace's Validate error", err)
	}
}

// TestReplayAccountsTraceVolume replays a small checkpoint/restart trace
// (one read, then writes, per rank) under every client interface with and
// without the prefetch-overlap replay: the report must move exactly the
// trace's read and write volume and carry one I/O time per trace rank.
func TestReplayAccountsTraceVolume(t *testing.T) {
	tr := trace.Generate("checkpoint", 3, 8, 1)
	// Put compute before each restart read so the optimized replay takes
	// its overlap path (only reads behind a gap are issued asynchronously).
	for _, evs := range tr.Ranks {
		evs[0].GapSec = 0.01
	}
	var wantRead, wantWrite int64
	for _, evs := range tr.Ranks {
		for _, ev := range evs {
			if ev.Write {
				wantWrite += ev.Bytes
			} else {
				wantRead += ev.Bytes
			}
		}
	}
	for _, iface := range []string{"fortran", "passion", "native"} {
		for _, opt := range []bool{false, true} {
			rep, err := run(paragonLarge(t), Config{Trace: tr, Interface: iface, Opt: opt})
			if err != nil {
				t.Fatalf("%s opt=%v: %v", iface, opt, err)
			}
			if rep.BytesRead != wantRead || rep.BytesWritten != wantWrite {
				t.Errorf("%s opt=%v: bytes read/written = %d/%d, want %d/%d",
					iface, opt, rep.BytesRead, rep.BytesWritten, wantRead, wantWrite)
			}
			if len(rep.PerRankIOSec) != len(tr.Ranks) {
				t.Errorf("%s opt=%v: %d per-rank I/O entries, want %d",
					iface, opt, len(rep.PerRankIOSec), len(tr.Ranks))
			}
		}
	}
}
