package scf

import (
	"testing"

	"pario/internal/trace"
)

func TestDirectDoesNoIO(t *testing.T) {
	rep, err := run11(t, 12, 4, Config11{Input: tiny, Version: Direct})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BytesRead != 0 || rep.BytesWritten != 0 {
		t.Fatalf("direct moved data: %d/%d", rep.BytesRead, rep.BytesWritten)
	}
	if rep.Trace.Total().Count != 0 {
		t.Fatalf("direct issued %d I/O ops", rep.Trace.Total().Count)
	}
	if rep.ExecSec <= 0 {
		t.Fatal("direct took no time")
	}
}

func TestDirectScalesWithProcs(t *testing.T) {
	few, err := run11(t, 12, 2, Config11{Input: tiny, Version: Direct})
	if err != nil {
		t.Fatal(err)
	}
	many, err := run11(t, 12, 16, Config11{Input: tiny, Version: Direct})
	if err != nil {
		t.Fatal(err)
	}
	speedup := few.ExecSec / many.ExecSec
	if speedup < 4 {
		t.Fatalf("direct speedup 2->16 procs = %g, want > 4 (compute-bound)", speedup)
	}
}

func TestDiskBasedBeatsDirectAtSmallScale(t *testing.T) {
	// The paper's §5 observation, small-P half: with few processors the
	// disk-based version (integral reuse) wins over recomputation.
	disk, err := run11(t, 12, 2, Config11{Input: tiny, Version: Passion})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := run11(t, 12, 2, Config11{Input: tiny, Version: Direct})
	if err != nil {
		t.Fatal(err)
	}
	if disk.ExecSec >= direct.ExecSec {
		t.Fatalf("disk-based %g not below direct %g at 2 procs", disk.ExecSec, direct.ExecSec)
	}
}

func TestDirectVersionString(t *testing.T) {
	if Direct.String() != "direct" {
		t.Fatal("Direct.String mismatch")
	}
}

func TestDirectSeeksZero(t *testing.T) {
	rep, err := run11(t, 12, 2, Config11{Input: tiny, Version: Direct})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace.Get(trace.Seek).Count != 0 {
		t.Fatal("direct version recorded seeks")
	}
}
