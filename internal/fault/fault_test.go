package fault

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"pario/internal/disk"
	"pario/internal/ionode"
	"pario/internal/network"
	"pario/internal/sim"
	"pario/internal/topology"
)

func TestParseRoundTrip(t *testing.T) {
	cases := []struct {
		in   string
		want string // canonical form
	}{
		{"disk:2:degrade=8@t=1.5s..4s", "disk:2:degrade=8@t=1.5s..4s"},
		{"ionode:0:stall=200ms@t=2s", "ionode:0:stall=0.2s@t=2s"},
		{"link:slow=4x@t=0..1s", "link:slow=4@t=0s..1s"},
		{"disk:fail@t=3", "disk:fail@t=3s"},
		{"ionode:1:crash@t=2s..5s", "ionode:1:crash@t=2s..5s"},
		{"disk:0:stall=1.5@t=0", "disk:0:stall=1.5s@t=0s"},
		{"retry=4;timeout=500ms;backoff=10ms", "retry=4;timeout=0.5s;backoff=0.01s"},
		{" disk:0:fail@t=1s ; retry=2 ", "disk:0:fail@t=1s;retry=2"},
		{"backoff=10ms;disk:fail@t=0", "disk:fail@t=0s;backoff=0.01s"},
		// The largest factor; bare seconds too fine or too coarse for
		// Go duration syntax, whose canonical forms must re-parse.
		{"disk:degrade=1e6@t=0", "disk:degrade=1e+06@t=0s"},
		{"disk:0:stall=0.0000001@t=0", "disk:0:stall=1e-07s@t=0s"},
		{"ionode:stall=0.1234567891234@t=1e3s", "ionode:stall=0.1234567891234s@t=1000s"},
		{"disk:fail@t=-0..1", "disk:fail@t=0s..1s"},
	}
	for _, c := range cases {
		pl, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if got := pl.String(); got != c.want {
			t.Errorf("Parse(%q).String() = %q, want %q", c.in, got, c.want)
		}
		// Canonical form is a fixed point.
		again, err := Parse(pl.String())
		if err != nil {
			t.Errorf("re-Parse(%q): %v", pl.String(), err)
			continue
		}
		if again.String() != pl.String() {
			t.Errorf("canonical form %q not a fixed point (got %q)", pl.String(), again.String())
		}
	}
}

// FuzzParse: every plan Parse accepts holds only finite values within
// the documented bounds, and its canonical form re-parses to an equal plan.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"disk:2:degrade=8@t=1.5s..4s", "ionode:0:stall=200ms@t=2s", "link:slow=4x@t=0..1s",
		"disk:fail@t=3;retry=4;timeout=500ms;backoff=10ms", "ionode:1:crash@t=2s..5s",
		"disk:degrade=inf@t=0", "link:slow=NaN@t=0", "disk:0:stall=1e-07s@t=0s",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		pl, err := Parse(spec)
		if err != nil || pl == nil {
			return
		}
		bounded := func(v, max float64) bool { return !math.IsNaN(v) && math.Abs(v) <= max }
		for _, inj := range pl.Injections {
			maxValue := float64(maxFactor)
			if inj.Kind == KindStall {
				maxValue = maxSeconds
			}
			if !bounded(inj.Value, maxValue) || !bounded(inj.Start, maxSeconds) || !bounded(inj.End, maxSeconds) {
				t.Fatalf("Parse(%q) accepted out-of-range injection %+v", spec, inj)
			}
		}
		if !bounded(pl.Policy.TimeoutSec, maxSeconds) || !bounded(pl.Policy.BackoffSec, maxSeconds) {
			t.Fatalf("Parse(%q) accepted out-of-range policy %+v", spec, pl.Policy)
		}
		canon := pl.String()
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(%q) canonical form %q does not re-parse: %v", spec, canon, err)
		}
		if !reflect.DeepEqual(again, pl) {
			t.Fatalf("Parse(%q) = %+v, canonical %q re-parses to %+v", spec, pl, canon, again)
		}
	})
}

func TestParseEmpty(t *testing.T) {
	for _, in := range []string{"", "  ", ";;", " ; "} {
		pl, err := Parse(in)
		if err != nil {
			t.Errorf("Parse(%q): %v", in, err)
		}
		if pl != nil {
			t.Errorf("Parse(%q) = %+v, want nil", in, pl)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"disk:2:degrade@t=1s",           // degrade needs a factor
		"disk:2:degrade=0@t=1s",         // non-positive factor
		"disk:fail=1@t=1s",              // fail takes no value
		"disk:0:stall=1s@t=0..2s",       // stall takes no window
		"disk:0:stall@t=0",              // stall needs a duration
		"link:0:slow=2@t=0",             // link takes no index
		"link:crash@t=0",                // wrong kind for layer
		"ionode:degrade=2@t=0",          // wrong kind for layer
		"tape:0:fail@t=0",               // unknown layer
		"disk:-1:fail@t=0",              // negative index
		"disk:0:fail@1s",                // missing t=
		"disk:0:fail@t=2s..1s",          // end before start
		"disk:0:fail@t=-1s",             // negative start
		"retry=-1",                      // negative retries
		"retry=two",                     // non-numeric
		"frobnicate=1",                  // unknown policy key
		"justaword",                     // not key=value
		"disk:0:fail@t=0;link:slow@t=0", // second entry bad
		// Non-finite and overflowing values.
		"disk:degrade=inf@t=0",
		"disk:degrade=1e308@t=0",
		"disk:degrade=1000001@t=0",
		"link:slow=NaN@t=0",
		"link:slow=+Inf@t=0",
		"disk:stall=inf@t=0.01",
		"disk:stall=1e308@t=0",
		"disk:fail@t=inf",
		"disk:fail@t=NaN",
		"disk:fail@t=0..inf",
		"disk:fail@t=1e10",
		"disk:fail@t=1s..-5s", // negative end
		"retry=4;backoff=inf",
		"timeout=NaN",
		"timeout=1e308s",
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
}

func TestParsePolicyOnly(t *testing.T) {
	pl, err := Parse("retry=3")
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Policy.HasRetries || pl.Policy.Retries != 3 {
		t.Fatalf("policy = %+v, want retries 3", pl.Policy)
	}
	if pl.Policy.HasTimeout || pl.Policy.HasBackoff {
		t.Fatalf("policy = %+v: unset knobs reported as set", pl.Policy)
	}
	if pl.Empty() {
		t.Fatal("policy-only plan reported empty")
	}
}

// buildRig returns an engine plus one network and two single-disk I/O
// nodes, the smallest system a plan can target.
func buildRig(t *testing.T) (*sim.Engine, *network.Network, []*ionode.Node) {
	t.Helper()
	eng := sim.NewEngine()
	topo, err := topology.NewMesh2D(2, 2, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	net, err := network.New(eng, topo, network.Params{
		Latency: 1e-5, ByteTime: 1e-8, HopTime: 1e-7, MemCopyByteTime: 1e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	par := ionode.Params{
		ServerOverhead: 1e-4,
		NumDisks:       1,
		Disk: disk.Params{
			RequestOverhead: 1e-3, SeekMin: 1e-3, SeekMax: 1e-2,
			FullStroke: 1 << 30, ByteTime: 1e-8,
		},
	}
	var nodes []*ionode.Node
	for i := 0; i < 2; i++ {
		n, err := ionode.New(eng, "io"+string(rune('0'+i)), par)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	return eng, net, nodes
}

func TestInstallValidatesIndices(t *testing.T) {
	eng, net, nodes := buildRig(t)
	for _, spec := range []string{"disk:2:fail@t=0", "ionode:5:crash@t=0"} {
		pl, err := Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := pl.Install(eng, net, nodes); err == nil {
			t.Errorf("Install(%q) succeeded, want index error", spec)
		}
	}
}

// TestInstallWindows drives a full scenario and checks each fault turns on
// and off at its exact virtual time.
func TestInstallWindows(t *testing.T) {
	eng, net, nodes := buildRig(t)
	pl, err := Parse("disk:0:degrade=8@t=1s..2s;disk:1:fail@t=1s..3s;ionode:1:crash@t=2s..4s;link:slow=4@t=1s..2s")
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Install(eng, net, nodes); err != nil {
		t.Fatal(err)
	}
	type sample struct {
		degrade float64
		failed  bool
		crashed bool
		slow    float64
	}
	// The wire factor shows as a remote message's uncontended time against
	// the healthy one, and a crash as the node refusing a request. Each
	// probe takes milliseconds, well inside its window.
	healthy := net.TransferTime(0, 1, 4096)
	at := map[float64]sample{}
	eng.Spawn("probe", func(p *sim.Proc) {
		for _, tm := range []float64{0.5, 1.5, 2.5, 3.5, 4.5} {
			p.Delay(tm - p.Now())
			s := sample{
				failed: nodes[1].Disk(0).Failed(),
				slow:   net.TransferTime(0, 1, 4096) / healthy,
			}
			s.crashed = errors.Is(nodes[1].Access(p, 0, 0, 100, false), ionode.ErrCrashed)
			s.degrade = degradeOf(t, p, nodes[0].Disk(0))
			at[tm] = s
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := map[float64]sample{
		0.5: {1, false, false, 1},
		1.5: {8, true, false, 4},
		2.5: {1, true, true, 1},
		3.5: {1, false, true, 1},
		4.5: {1, false, false, 1},
	}
	for tm, w := range want {
		if at[tm] != w {
			t.Errorf("t=%g: state %+v, want %+v", tm, at[tm], w)
		}
	}
	if got := eng.Metrics().Counter("fault.injections").Value(); got != 8 {
		t.Errorf("fault.injections = %d, want 8 (4 starts + 4 repairs)", got)
	}
}

// degradeOf reads a drive's service-time multiplier as a client sees it:
// the busy time of one read against the drive's uncontended ServiceTime,
// rounded off the residue of their different summation orders.
func degradeOf(t *testing.T, p *sim.Proc, d *disk.Disk) float64 {
	want := d.ServiceTime(0, 4096)
	busy := d.Stats().BusySec
	if err := d.Access(p, 0, 4096, false); err != nil {
		t.Errorf("probe read: %v", err)
	}
	return math.Round((d.Stats().BusySec-busy)/want*1e9) / 1e9
}

// TestInstallAllUnits: an index-less disk fault hits every drive.
func TestInstallAllUnits(t *testing.T) {
	eng, net, nodes := buildRig(t)
	pl, err := Parse("disk:degrade=2@t=1s")
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Install(eng, net, nodes); err != nil {
		t.Fatal(err)
	}
	eng.Spawn("probe", func(p *sim.Proc) {
		p.Delay(2)
		for i, n := range nodes {
			if got := degradeOf(t, p, n.Disk(0)); got != 2 {
				t.Errorf("node %d degrade = %g, want 2", i, got)
			}
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestStallOccupiesDisk: a stall injection delays a request that arrives
// during it by exactly the remaining stall time.
func TestStallOccupiesDisk(t *testing.T) {
	eng, net, nodes := buildRig(t)
	pl, err := Parse("disk:0:stall=1s@t=1s")
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Install(eng, net, nodes); err != nil {
		t.Fatal(err)
	}
	var done float64
	eng.ScheduleStep(1.5, sim.Step{Fn: func() {
		eng.Spawn("client", func(p *sim.Proc) {
			if err := nodes[0].Disk(0).Access(p, 0, 0, false); err != nil {
				t.Errorf("Access: %v", err)
			}
			done = p.Now()
		})
	}})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Stall holds the drive until t=2; the request then pays its own
	// overhead (1ms, no seek from head 0, zero bytes).
	if want := 2.001; done < want-1e-9 || done > want+1e-9 {
		t.Errorf("request finished at %g, want %g", done, want)
	}
}

// TestFailedDiskErrors: during a fail window Access errors with
// disk.ErrFailed and after repair it succeeds again.
func TestFailedDiskErrors(t *testing.T) {
	eng, net, nodes := buildRig(t)
	pl, err := Parse("disk:0:fail@t=1s..2s")
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Install(eng, net, nodes); err != nil {
		t.Fatal(err)
	}
	var during, after error
	eng.ScheduleStep(1.5, sim.Step{Fn: func() {
		eng.Spawn("during", func(p *sim.Proc) {
			during = nodes[0].Disk(0).Access(p, 0, 100, false)
		})
	}})
	eng.ScheduleStep(2.5, sim.Step{Fn: func() {
		eng.Spawn("after", func(p *sim.Proc) {
			after = nodes[0].Disk(0).Access(p, 0, 100, false)
		})
	}})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(during, disk.ErrFailed) {
		t.Errorf("during window: err = %v, want ErrFailed", during)
	}
	if after != nil {
		t.Errorf("after repair: err = %v, want nil", after)
	}
}

// TestCrashedNodeErrors: a crashed node refuses requests with ErrCrashed.
func TestCrashedNodeErrors(t *testing.T) {
	eng, net, nodes := buildRig(t)
	pl, err := Parse("ionode:0:crash@t=1s")
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Install(eng, net, nodes); err != nil {
		t.Fatal(err)
	}
	var got error
	eng.ScheduleStep(2, sim.Step{Fn: func() {
		eng.Spawn("client", func(p *sim.Proc) {
			got = nodes[0].Access(p, 0, 0, 100, false)
		})
	}})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(got, ionode.ErrCrashed) {
		t.Errorf("err = %v, want ErrCrashed", got)
	}
}

// TestEmptyPlanRegistersNothing: installing a nil/empty plan must leave
// the metrics registry untouched — the zero-cost-when-idle guarantee.
func TestEmptyPlanRegistersNothing(t *testing.T) {
	eng, net, nodes := buildRig(t)
	before := eng.Metrics().Snapshot(0).Table()
	var pl *Plan
	if err := pl.Install(eng, net, nodes); err != nil {
		t.Fatal(err)
	}
	if after := eng.Metrics().Snapshot(0).Table(); after != before {
		t.Errorf("empty plan changed the metrics table:\n%s", after)
	}
	if strings.Contains(before, "fault.") {
		t.Errorf("fault metrics present before any install:\n%s", before)
	}
}
