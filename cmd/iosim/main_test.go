package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pario/internal/core"
	"pario/internal/request"
	"pario/internal/serve"
	"pario/internal/trace"
)

// TestRunApps smoke-tests the driver's dispatch for every application at
// sizes that simulate in well under a second each.
func TestRunApps(t *testing.T) {
	// btio and ast run their optimized versions: same dispatch path, an
	// order of magnitude fewer simulated requests at the paper sizes.
	cases := []struct {
		name string
		app  string
		opt  bool
	}{
		{"scf11", "scf11", false},
		{"scf30", "scf30", false},
		{"fft", "fft", false},
		{"btio", "btio", true},
		{"ast", "ast", true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			req, rep, err := run(c.app, 4, 0, c.opt, "SMALL", "original", 90, "A", "")
			if err != nil {
				t.Fatal(err)
			}
			if req.App != c.app {
				t.Fatalf("canonical app = %q", req.App)
			}
			if rep.ExecSec <= 0 {
				t.Fatalf("%s: non-positive exec time %g", c.app, rep.ExecSec)
			}
			if rep.BytesRead+rep.BytesWritten <= 0 {
				t.Fatalf("%s: no I/O simulated", c.app)
			}
			if rep.Stats == nil {
				t.Fatalf("%s: report missing metrics snapshot", c.app)
			}
		})
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, _, err := run("nope", 4, 0, false, "SMALL", "original", 90, "A", ""); err == nil {
		t.Fatal("unknown app accepted")
	}
	if _, _, err := run("scf11", 4, 0, false, "HUGE", "original", 90, "A", ""); err == nil {
		t.Fatal("unknown input accepted")
	}
	if _, _, err := run("scf11", 4, 0, false, "SMALL", "turbo", 90, "A", ""); err == nil {
		t.Fatal("unknown version accepted")
	}
	// Non-finite or overflowing fault values are refused as bad requests
	// before anything simulates.
	for _, plan := range []string{
		"disk:degrade=inf@t=0", "link:slow=NaN@t=0", "disk:degrade=1e308@t=0",
		"disk:stall=inf@t=0.01", "retry=4;backoff=inf",
	} {
		_, _, err := run("fft", 4, 0, false, "SMALL", "original", 90, "A", plan)
		if got := core.ErrorClass(err); got != "bad_request" {
			t.Errorf("plan %q: error %v (class %s), want a bad_request", plan, err, got)
		}
	}
}

// TestRunTraceRefusesRanksBeyondMachine replays a trace with one more rank
// than the replay machine has compute nodes: the refusal is the service's
// bad_request, named by rank and compute-node count, not an internal error.
func TestRunTraceRefusesRanksBeyondMachine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "storm.ptrt")
	if err := os.WriteFile(path, trace.AppendStorm(513, 1, 0).EncodeText(), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := runTrace(path, "", 0, false, "")
	if core.ErrorClass(err) != "bad_request" ||
		!strings.Contains(err.Error(), "513 ranks exceeds the 512 compute nodes") {
		t.Fatalf("error %v (class %s), want a bad_request naming 513 ranks and 512 compute nodes", err, core.ErrorClass(err))
	}
}

// TestJSONOutputMatchesService pins the -json satellite: the CLI's encoding
// is the service codec verbatim, so for one configuration the daemon's
// response body and iosim -json are byte-identical.
func TestJSONOutputMatchesService(t *testing.T) {
	req, rep, err := run("scf11", 4, 0, false, "SMALL", "original", 90, "A", "")
	if err != nil {
		t.Fatal(err)
	}
	cliBody, err := serve.Encode(req, rep)
	if err != nil {
		t.Fatal(err)
	}
	// What the service would serve: canonicalize the equivalent request
	// and encode its (deterministic) run through the same codec.
	canon, err := request.Canonicalize(request.Request{App: "scf11", Input: "small"})
	if err != nil {
		t.Fatal(err)
	}
	svcRep, err := request.Run(nil, canon)
	if err != nil {
		t.Fatal(err)
	}
	svcBody, err := serve.Encode(canon, svcRep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cliBody, svcBody) {
		t.Fatal("iosim -json body differs from the service encoding for the same config")
	}
}
