// Package fault is the deterministic fault-injection subsystem: a Plan —
// parsed from a compact flag DSL — schedules degradations, outages,
// stalls, crashes, and link slowdowns as ordinary simulation events, so
// every injection lands at an exact virtual time and runs stay bit-for-bit
// reproducible across worker counts.
//
// The DSL is a ';'-separated list of entries. An injection entry is
//
//	layer[:index]:kind[=value]@t=START[..END]
//
// for example
//
//	disk:2:degrade=8@t=1.5s..4s    // drive 2 is 8x slower from 1.5s to 4s
//	disk:0:fail@t=2s..3s           // drive 0 errors every request in [2s,3s)
//	ionode:0:stall=200ms@t=2s      // a 200ms server pause at t=2s
//	ionode:1:crash@t=2s            // node 1 down from 2s, never recovered
//	link:slow=4x@t=0..1s           // every wire cost 4x for the first second
//
// The index may be omitted to hit every unit of the layer; END may be
// omitted for a fault that is never repaired. Durations accept Go syntax
// ("200ms", "1.5s") or bare seconds ("0.2"), up to 1e9 s; factors accept
// an optional trailing "x", up to 1e6. Non-finite values are refused. A
// policy entry tunes the PFS client's resilience:
//
//	retry=4;timeout=500ms;backoff=10ms
//
// Plans canonicalize: Parse followed by String yields a normal form
// (durations in seconds, factors bare), which pariod uses to fold
// equivalent spellings onto one cache key while keeping degraded runs
// distinct from healthy ones.
package fault

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"pario/internal/disk"
	"pario/internal/ionode"
	"pario/internal/network"
	"pario/internal/sim"
)

// Layer identifies which model a fault targets.
type Layer int

const (
	LayerDisk Layer = iota
	LayerIONode
	LayerLink
)

func (l Layer) String() string {
	switch l {
	case LayerDisk:
		return "disk"
	case LayerIONode:
		return "ionode"
	case LayerLink:
		return "link"
	}
	return fmt.Sprintf("layer(%d)", int(l))
}

// Kind is the fault primitive to apply.
type Kind int

const (
	// KindDegrade multiplies a drive's service time by Value for the
	// window (disk only).
	KindDegrade Kind = iota
	// KindFail makes a drive error every request for the window (disk
	// only).
	KindFail
	// KindStall occupies the unit with a phantom request of Value seconds
	// at Start (disk or ionode; no window).
	KindStall
	// KindCrash refuses all requests at the node for the window (ionode
	// only).
	KindCrash
	// KindSlow multiplies every wire cost by Value for the window (link
	// only).
	KindSlow
)

func (k Kind) String() string {
	switch k {
	case KindDegrade:
		return "degrade"
	case KindFail:
		return "fail"
	case KindStall:
		return "stall"
	case KindCrash:
		return "crash"
	case KindSlow:
		return "slow"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Injection is one scheduled fault.
type Injection struct {
	Layer Layer
	// Index selects the unit: a global drive index (flattened across I/O
	// nodes in order) for disk, an I/O-node index for ionode. -1 targets
	// every unit of the layer; links are always layer-wide.
	Index int
	Kind  Kind
	// Value is the degrade/slow factor or the stall duration in seconds;
	// zero for kinds that take none (fail, crash).
	Value float64
	// Start is the injection virtual time in seconds.
	Start float64
	// End, when >= 0, is when the fault is repaired (degrade back to 1,
	// drive un-failed, node recovered, link at full speed). Negative means
	// never.
	End float64
}

// Policy overrides the PFS client resilience defaults. Each field applies
// only when its Has flag is set, so a plan can tune one knob without
// pinning the others.
type Policy struct {
	Retries    int // extra attempts after the first
	HasRetries bool
	TimeoutSec float64 // per-attempt timeout; 0 disables
	HasTimeout bool
	BackoffSec float64 // first-retry backoff, doubling per retry
	HasBackoff bool
}

// Plan is a parsed fault scenario: injections in input order plus an
// optional resilience policy.
type Plan struct {
	Injections []Injection
	Policy     Policy
}

// Empty reports whether the plan changes nothing.
func (pl *Plan) Empty() bool {
	return pl == nil || (len(pl.Injections) == 0 &&
		!pl.Policy.HasRetries && !pl.Policy.HasTimeout && !pl.Policy.HasBackoff)
}

// maxFactor bounds degrade and slow factors, and maxSeconds every time and
// duration a plan names. Both lie far beyond any meaningful fault — a
// millionfold slowdown, some thirty years of simulated time — and keep
// every event time a plan leads to finite: any plan Parse accepts runs to a
// report or a structured error.
const (
	maxFactor  = 1e6
	maxSeconds = 1e9
)

// parseSeconds accepts bare seconds with an optional trailing "s" — the
// canonical form, which re-parses to the same bits — or Go duration syntax.
// The value must be finite and at most maxSeconds in magnitude; -0 reads
// as 0.
func parseSeconds(s string) (float64, error) {
	f, err := strconv.ParseFloat(strings.TrimSuffix(s, "s"), 64)
	if err != nil {
		d, derr := time.ParseDuration(s)
		if derr != nil {
			return 0, fmt.Errorf("fault: bad duration %q", s)
		}
		f = d.Seconds()
	}
	if !(math.Abs(f) <= maxSeconds) {
		return 0, fmt.Errorf("fault: duration %q out of range (at most %gs)", s, float64(maxSeconds))
	}
	if f == 0 {
		f = 0 // canonical +0
	}
	return f, nil
}

// parseFactor accepts a float with an optional trailing "x", in
// (0, maxFactor].
func parseFactor(s string) (float64, error) {
	f, err := strconv.ParseFloat(strings.TrimSuffix(s, "x"), 64)
	if err != nil || !(f > 0 && f <= maxFactor) {
		return 0, fmt.Errorf("fault: bad factor %q (want 0 < factor <= %g)", s, float64(maxFactor))
	}
	return f, nil
}

// Parse builds a Plan from the DSL. An empty (or all-whitespace) spec
// yields a nil plan and no error.
func Parse(spec string) (*Plan, error) {
	pl := &Plan{}
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		if err := pl.parseEntry(entry); err != nil {
			return nil, err
		}
	}
	if pl.Empty() {
		return nil, nil
	}
	return pl, nil
}

func (pl *Plan) parseEntry(entry string) error {
	head, timePart, windowed := strings.Cut(entry, "@")
	if !windowed {
		return pl.parsePolicy(entry)
	}
	start, end, err := parseWindow(timePart)
	if err != nil {
		return fmt.Errorf("%w (in %q)", err, entry)
	}
	inj, err := parseTarget(head)
	if err != nil {
		return fmt.Errorf("%w (in %q)", err, entry)
	}
	inj.Start, inj.End = start, end
	if inj.Kind == KindStall && inj.End >= 0 {
		return fmt.Errorf("fault: stall takes a duration value, not a window (in %q)", entry)
	}
	if inj.End >= 0 && inj.End <= inj.Start {
		return fmt.Errorf("fault: window end %gs not after start %gs (in %q)", inj.End, inj.Start, entry)
	}
	pl.Injections = append(pl.Injections, inj)
	return nil
}

// parseWindow parses "t=START" or "t=START..END".
func parseWindow(s string) (start, end float64, err error) {
	rest, ok := strings.CutPrefix(s, "t=")
	if !ok {
		return 0, 0, fmt.Errorf("fault: expected t=START[..END], got %q", s)
	}
	from, to, hasEnd := strings.Cut(rest, "..")
	if start, err = parseSeconds(from); err != nil {
		return 0, 0, err
	}
	if start < 0 {
		return 0, 0, fmt.Errorf("fault: negative start time %gs", start)
	}
	end = -1
	if hasEnd {
		if end, err = parseSeconds(to); err != nil {
			return 0, 0, err
		}
		if end < 0 {
			return 0, 0, fmt.Errorf("fault: negative end time %gs", end)
		}
	}
	return start, end, nil
}

// parseTarget parses "layer[:index]:kind[=value]".
func parseTarget(head string) (Injection, error) {
	inj := Injection{Index: -1}
	parts := strings.Split(head, ":")
	layer, parts := parts[0], parts[1:]
	switch layer {
	case "disk":
		inj.Layer = LayerDisk
	case "ionode":
		inj.Layer = LayerIONode
	case "link":
		inj.Layer = LayerLink
	default:
		return inj, fmt.Errorf("fault: unknown layer %q", layer)
	}
	if len(parts) == 2 {
		if inj.Layer == LayerLink {
			return inj, fmt.Errorf("fault: link faults take no index")
		}
		idx, err := strconv.Atoi(parts[0])
		if err != nil || idx < 0 {
			return inj, fmt.Errorf("fault: bad %s index %q", layer, parts[0])
		}
		inj.Index = idx
		parts = parts[1:]
	}
	if len(parts) != 1 {
		return inj, fmt.Errorf("fault: expected layer[:index]:kind[=value]")
	}
	kind, val, hasVal := strings.Cut(parts[0], "=")
	var err error
	switch {
	case inj.Layer == LayerDisk && kind == "degrade":
		inj.Kind = KindDegrade
		if !hasVal {
			return inj, fmt.Errorf("fault: degrade needs a factor")
		}
		if inj.Value, err = parseFactor(val); err != nil {
			return inj, err
		}
	case inj.Layer == LayerDisk && kind == "fail":
		inj.Kind = KindFail
		if hasVal {
			return inj, fmt.Errorf("fault: fail takes no value")
		}
	case inj.Layer != LayerLink && kind == "stall":
		inj.Kind = KindStall
		if !hasVal {
			return inj, fmt.Errorf("fault: stall needs a duration")
		}
		if inj.Value, err = parseSeconds(val); err != nil || inj.Value <= 0 {
			return inj, fmt.Errorf("fault: bad stall duration %q", val)
		}
	case inj.Layer == LayerIONode && kind == "crash":
		inj.Kind = KindCrash
		if hasVal {
			return inj, fmt.Errorf("fault: crash takes no value")
		}
	case inj.Layer == LayerLink && kind == "slow":
		inj.Kind = KindSlow
		if !hasVal {
			return inj, fmt.Errorf("fault: slow needs a factor")
		}
		if inj.Value, err = parseFactor(val); err != nil {
			return inj, err
		}
	default:
		return inj, fmt.Errorf("fault: %s does not support kind %q", inj.Layer, kind)
	}
	return inj, nil
}

func (pl *Plan) parsePolicy(entry string) error {
	key, val, ok := strings.Cut(entry, "=")
	if !ok {
		return fmt.Errorf("fault: bad entry %q", entry)
	}
	switch key {
	case "retry":
		n, err := strconv.Atoi(val)
		if err != nil || n < 0 {
			return fmt.Errorf("fault: bad retry count %q", val)
		}
		pl.Policy.Retries, pl.Policy.HasRetries = n, true
	case "timeout":
		sec, err := parseSeconds(val)
		if err != nil || sec < 0 {
			return fmt.Errorf("fault: bad timeout %q", val)
		}
		pl.Policy.TimeoutSec, pl.Policy.HasTimeout = sec, true
	case "backoff":
		sec, err := parseSeconds(val)
		if err != nil || sec < 0 {
			return fmt.Errorf("fault: bad backoff %q", val)
		}
		pl.Policy.BackoffSec, pl.Policy.HasBackoff = sec, true
	default:
		return fmt.Errorf("fault: unknown entry %q", entry)
	}
	return nil
}

// String renders the canonical form: injections in input order, durations
// in bare seconds, factors bare, policy entries last in a fixed order.
// Parse(pl.String()) reproduces the plan, and any two spellings of the
// same scenario render identically — the property pariod's cache keying
// relies on.
func (pl *Plan) String() string {
	if pl == nil {
		return ""
	}
	var parts []string
	for _, inj := range pl.Injections {
		var b strings.Builder
		b.WriteString(inj.Layer.String())
		if inj.Index >= 0 {
			fmt.Fprintf(&b, ":%d", inj.Index)
		}
		b.WriteString(":")
		b.WriteString(inj.Kind.String())
		switch inj.Kind {
		case KindDegrade, KindSlow:
			fmt.Fprintf(&b, "=%g", inj.Value)
		case KindStall:
			fmt.Fprintf(&b, "=%gs", inj.Value)
		}
		fmt.Fprintf(&b, "@t=%gs", inj.Start)
		if inj.End >= 0 {
			fmt.Fprintf(&b, "..%gs", inj.End)
		}
		parts = append(parts, b.String())
	}
	if pl.Policy.HasRetries {
		parts = append(parts, fmt.Sprintf("retry=%d", pl.Policy.Retries))
	}
	if pl.Policy.HasTimeout {
		parts = append(parts, fmt.Sprintf("timeout=%gs", pl.Policy.TimeoutSec))
	}
	if pl.Policy.HasBackoff {
		parts = append(parts, fmt.Sprintf("backoff=%gs", pl.Policy.BackoffSec))
	}
	return strings.Join(parts, ";")
}

// Install validates the plan against the built system and schedules every
// injection as engine events. It must be called after the models are built
// and before the engine runs. The fault.injections counter — registered
// here, never on healthy runs — counts fired injection actions (a windowed
// fault counts once at start and once at repair).
func (pl *Plan) Install(eng *sim.Engine, net *network.Network, nodes []*ionode.Node) error {
	if pl.Empty() {
		return nil
	}
	var disks []*disk.Disk
	for _, n := range nodes {
		for i := 0; i < n.NumDisks(); i++ {
			disks = append(disks, n.Disk(i))
		}
	}
	// Validate everything before scheduling anything: a bad index must not
	// leave half a plan installed.
	for _, inj := range pl.Injections {
		switch inj.Layer {
		case LayerDisk:
			if inj.Index >= len(disks) {
				return fmt.Errorf("fault: disk index %d out of range (have %d)", inj.Index, len(disks))
			}
		case LayerIONode:
			if inj.Index >= len(nodes) {
				return fmt.Errorf("fault: ionode index %d out of range (have %d)", inj.Index, len(nodes))
			}
		case LayerLink:
			if net == nil {
				return fmt.Errorf("fault: no network to inject link faults into")
			}
		}
	}
	fired := eng.Metrics().Counter("fault.injections")
	// Before Run the clock reads 0, so a delay of t lands at exactly t.
	sched := func(t float64, fn func()) {
		eng.ScheduleStep(t, sim.Step{Fn: func() {
			fired.Inc()
			fn()
		}})
	}
	for _, inj := range pl.Injections {
		inj := inj
		targetDisks := disks
		targetNodes := nodes
		if inj.Index >= 0 {
			switch inj.Layer {
			case LayerDisk:
				targetDisks = disks[inj.Index : inj.Index+1]
			case LayerIONode:
				targetNodes = nodes[inj.Index : inj.Index+1]
			}
		}
		switch inj.Kind {
		case KindDegrade:
			sched(inj.Start, func() {
				for _, d := range targetDisks {
					d.SetDegrade(inj.Value)
				}
			})
			if inj.End >= 0 {
				// Repair via SetDegrade(1), not Restore: a concurrently
				// open fail window on the same drive must stay open.
				sched(inj.End, func() {
					for _, d := range targetDisks {
						d.SetDegrade(1)
					}
				})
			}
		case KindFail:
			sched(inj.Start, func() {
				for _, d := range targetDisks {
					d.SetFailed(true)
				}
			})
			if inj.End >= 0 {
				sched(inj.End, func() {
					for _, d := range targetDisks {
						d.SetFailed(false)
					}
				})
			}
		case KindStall:
			if inj.Layer == LayerDisk {
				sched(inj.Start, func() {
					for _, d := range targetDisks {
						d.Stall(inj.Value)
					}
				})
			} else {
				sched(inj.Start, func() {
					for _, n := range targetNodes {
						n.Stall(inj.Value)
					}
				})
			}
		case KindCrash:
			sched(inj.Start, func() {
				for _, n := range targetNodes {
					n.Crash()
				}
			})
			if inj.End >= 0 {
				sched(inj.End, func() {
					for _, n := range targetNodes {
						n.Recover()
					}
				})
			}
		case KindSlow:
			sched(inj.Start, func() { net.SetSlowdown(inj.Value) })
			if inj.End >= 0 {
				sched(inj.End, func() { net.SetSlowdown(1) })
			}
		}
	}
	return nil
}
