package main

import (
	"bytes"
	"context"
	"testing"

	"pario/internal/request"
	"pario/internal/serve"
	"pario/internal/trace"
)

func TestRunAppProducesTrace(t *testing.T) {
	_, rep, err := run(request.Request{App: "fft", Procs: 2, Input: "SMALL", Version: "original"}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Captured) != 2 || len(rep.Captured[0]) == 0 {
		t.Fatalf("-capture run captured %d ranks", len(rep.Captured))
	}
	if rep.Trace == nil {
		t.Fatal("no trace recorder on report")
	}
	if rep.Trace.Get(trace.Read).Count == 0 && rep.Trace.Get(trace.Write).Count == 0 {
		t.Fatal("trace recorded no data operations")
	}
	if rep.Trace.Table(rep.ExecSec*float64(rep.Procs)) == "" {
		t.Fatal("empty summary table")
	}
}

func TestRunAppUnknown(t *testing.T) {
	if _, _, err := run(request.Request{App: "nope", Procs: 2}, false); err == nil {
		t.Fatal("unknown app accepted")
	}
}

// TestRunResolvesLikeTheService pins iotrace to the service's request
// rules: an unknown scf11 version is refused, not silently run as the
// original, and -opt runs the prefetch version, exactly as iosim and
// pariod do.
func TestRunResolvesLikeTheService(t *testing.T) {
	if _, _, err := run(request.Request{App: "scf11", Input: "SMALL", Version: "bogus"}, false); err == nil {
		t.Fatal("unknown scf11 version accepted")
	}
	req, rep, err := run(request.Request{App: "scf11", Input: "SMALL", Version: "original", Opt: true}, false)
	if err != nil {
		t.Fatal(err)
	}
	if req.Version != "prefetch" {
		t.Fatalf("scf11 -opt resolved to version %q, want prefetch", req.Version)
	}
	got, err := serve.Encode(req, rep)
	if err != nil {
		t.Fatal(err)
	}
	want, err := request.Canonicalize(request.Request{App: "scf11", Input: "SMALL", Version: "prefetch"})
	if err != nil {
		t.Fatal(err)
	}
	wantRep, err := request.Run(context.Background(), want)
	if err != nil {
		t.Fatal(err)
	}
	wantBody, err := serve.Encode(want, wantRep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantBody) {
		t.Fatal("scf11 -opt report differs from the prefetch version's")
	}
}
