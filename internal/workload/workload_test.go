package workload

import (
	"testing"
	"testing/quick"

	"pario/internal/machine"
	"pario/internal/pio"
	"pario/internal/trace"
)

func TestSequentialIsDense(t *testing.T) {
	s := Spec{Pattern: Sequential, TotalBytes: 10000, RequestBytes: 1000}
	reqs, err := s.Requests()
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 10 {
		t.Fatalf("requests = %d, want 10", len(reqs))
	}
	for i, r := range reqs {
		if r.Off != int64(i)*1000 || r.Len != 1000 {
			t.Fatalf("request %d = %+v", i, r)
		}
	}
}

func TestStridedGaps(t *testing.T) {
	s := Spec{Pattern: Strided, TotalBytes: 4000, RequestBytes: 1000, Stride: 500}
	reqs, err := s.Requests()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range reqs {
		if r.Off != int64(i)*1500 {
			t.Fatalf("request %d at %d, want %d", i, r.Off, i*1500)
		}
	}
}

func TestTailRequestShortened(t *testing.T) {
	s := Spec{Pattern: Sequential, TotalBytes: 2500, RequestBytes: 1000}
	reqs, err := s.Requests()
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 3 || reqs[2].Len != 500 {
		t.Fatalf("tail = %+v", reqs)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	s := Spec{Pattern: Random, TotalBytes: 100000, RequestBytes: 1000, Seed: 7, WriteFrac: 0.3}
	a, _ := s.Requests()
	b, _ := s.Requests()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs across identical specs", i)
		}
	}
	s2 := s
	s2.Seed = 8
	c, _ := s2.Requests()
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical streams")
	}
}

// Property: every generated stream moves exactly TotalBytes, stays inside
// the extent, and request sizes never exceed RequestBytes.
func TestVolumeAndBoundsProperty(t *testing.T) {
	f := func(pat uint8, volRaw, reqRaw uint16, seed uint64, wfRaw uint8) bool {
		s := Spec{
			Pattern:      Pattern(pat % 4),
			TotalBytes:   int64(volRaw)%100000 + 1,
			RequestBytes: int64(reqRaw)%4096 + 1,
			Stride:       int64(reqRaw % 512),
			Seed:         seed,
			WriteFrac:    float64(wfRaw%101) / 100,
		}
		reqs, err := s.Requests()
		if err != nil {
			return false
		}
		var total int64
		extent := s.Extent
		if extent == 0 {
			extent = 4 * s.TotalBytes
		}
		for _, r := range reqs {
			if r.Len <= 0 || r.Len > s.RequestBytes || r.Off < 0 {
				return false
			}
			if (s.Pattern == Random || s.Pattern == Hotspot) && r.Off+s.RequestBytes > extent+s.RequestBytes {
				return false
			}
			total += r.Len
		}
		return total == s.TotalBytes
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWriteFracRespected(t *testing.T) {
	s := Spec{Pattern: Sequential, TotalBytes: 1 << 20, RequestBytes: 1024, WriteFrac: 0.25, Seed: 3}
	reqs, _ := s.Requests()
	writes := 0
	for _, r := range reqs {
		if r.Write {
			writes++
		}
	}
	frac := float64(writes) / float64(len(reqs))
	if frac < 0.15 || frac > 0.35 {
		t.Fatalf("write fraction = %g, want ~0.25", frac)
	}
}

func TestHotspotConcentrates(t *testing.T) {
	s := Spec{Pattern: Hotspot, TotalBytes: 1 << 20, RequestBytes: 1024, Extent: 64 << 20, Seed: 5}
	reqs, _ := s.Requests()
	hotLen := s.Extent / 64
	hot := 0
	for _, r := range reqs {
		if r.Off < hotLen {
			hot++
		}
	}
	frac := float64(hot) / float64(len(reqs))
	if frac < 0.8 {
		t.Fatalf("hot fraction = %g, want ~0.9", frac)
	}
}

func TestValidation(t *testing.T) {
	bad := []Spec{
		{},
		{Pattern: Sequential, TotalBytes: -1, RequestBytes: 10},
		{Pattern: Sequential, TotalBytes: 10, RequestBytes: 0},
		{Pattern: Sequential, TotalBytes: 10, RequestBytes: 10, WriteFrac: 2},
		{Pattern: Pattern(9), TotalBytes: 10, RequestBytes: 10},
		{Pattern: Strided, TotalBytes: 10, RequestBytes: 10, Stride: -5},
	}
	for i, s := range bad {
		if _, err := s.Requests(); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, s)
		}
	}
}

func TestMaxExtent(t *testing.T) {
	reqs := []Request{{Off: 0, Len: 10}, {Off: 100, Len: 50}}
	if MaxExtent(reqs) != 150 {
		t.Fatalf("MaxExtent = %d", MaxExtent(reqs))
	}
	if MaxExtent(nil) != 0 {
		t.Fatal("MaxExtent(nil) != 0")
	}
}

func TestReplayDrivesInterface(t *testing.T) {
	cfg, err := machine.ParagonLarge(12)
	if err != nil {
		t.Fatal(err)
	}
	s := Spec{Pattern: Strided, TotalBytes: 1 << 20, RequestBytes: 64 << 10, Stride: 64 << 10, WriteFrac: 0.5, Seed: 1}
	reqs, err := s.Requests()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(cfg, cfg.Passion, 1, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ExecSec <= 0 {
		t.Fatal("replay took no time")
	}
	got := rep.Trace.Get(trace.Read).Count + rep.Trace.Get(trace.Write).Count
	if got != int64(len(reqs)) {
		t.Fatalf("replayed %d ops, want %d", got, len(reqs))
	}
	if rep.BytesRead+rep.BytesWritten != s.TotalBytes {
		t.Fatalf("replayed %d bytes, want %d", rep.BytesRead+rep.BytesWritten, s.TotalBytes)
	}
}

// TestSharedModes runs the shared-file workload: an appending mode writes
// every rank's operations, and a mode pio.NewSharedFile refuses comes back
// as the run's error instead of a panic.
func TestSharedModes(t *testing.T) {
	cfg, err := machine.ParagonLarge(16)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Shared(cfg, pio.ModeLog, 4, 2, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BytesWritten != 4*2*64<<10 {
		t.Fatalf("M_LOG wrote %d bytes, want %d", rep.BytesWritten, 4*2*64<<10)
	}
	for _, c := range []struct {
		mode    pio.Mode
		opBytes int64
	}{{pio.Mode(99), 64 << 10}, {pio.ModeRecord, 0}} {
		if _, err := Shared(cfg, c.mode, 4, 2, c.opBytes); err == nil {
			t.Errorf("mode %v with %d-byte operations accepted", c.mode, c.opBytes)
		}
	}
}

func TestPatternStrings(t *testing.T) {
	for p, s := range map[Pattern]string{
		Sequential: "sequential", Strided: "strided", Random: "random", Hotspot: "hotspot",
	} {
		if p.String() != s {
			t.Fatalf("%d.String() = %q", p, p.String())
		}
	}
}
