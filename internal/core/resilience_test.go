package core

// Fault-matrix golden: the client resilience policy (per-request timeout,
// bounded retry, exponential backoff) pinned end to end, byte for byte.
// Every row runs a small 4-rank workload on the 16-I/O-node Paragon under
// one fault plan and records what the run exposes: per-rank trace
// statistics, the final virtual time, the event count, the run error and
// the rendered metrics snapshot.
//
// Regenerate after an intentional model change with:
//
//	go test ./internal/core -run ResilienceGolden -update

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"pario/internal/fault"
	"pario/internal/machine"
	"pario/internal/ooc"
	"pario/internal/pio"
	"pario/internal/sim"
	"pario/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/resilience.golden instead of comparing")

// The fault-matrix workloads.
const (
	wlRead         = "read"          // sequential ReadAt of each rank's partition
	wlWrite        = "write"         // stripe-unit WriteAt calls over it, through the write-behind cache
	wlWriteThrough = "write-through" // the same writes with the cache off
	wlPrefetch     = "prefetch"      // the partition through a depth-2 Prefetcher
	wlFunnel       = "funnel"        // every rank's partition written through a Chameleon Funnel
)

const (
	resProcs  = 4
	resChunks = 8
	resChunk  = int64(256 << 10)
)

// resilienceRow is one fault-matrix entry. singleNode stripes the file over
// io0 alone, so each transfer is one chain ending in the issuer's wake;
// otherwise the file spans every I/O node.
type resilienceRow struct {
	workload   string
	singleNode bool
	plan       string
}

// degradedPlans are the degraded artifact's seven scenarios.
var degradedPlans = []string{
	"",
	"disk:degrade=2@t=0",
	"disk:degrade=4@t=0",
	"disk:degrade=8@t=0",
	"ionode:stall=100ms@t=50ms;link:slow=4x@t=50ms..150ms",
	"disk:0:fail@t=50ms..80ms;retry=8;backoff=5ms",
	"disk:0:fail@t=50ms;retry=2;backoff=10ms",
}

const (
	// timeoutRetryWins times some attempts out and lets a retry win.
	timeoutRetryWins = "disk:degrade=8@t=0;retry=3;timeout=300ms"
	// timeoutStorm times out so early that abandoned attempts pile up on
	// the degraded drive ahead of their own retries, until one exhausts.
	timeoutStorm = "disk:degrade=8@t=0;retry=3;timeout=20ms"
	// timeoutExhausts times out more often than the default retries allow.
	timeoutExhausts = "disk:degrade=2@t=0;timeout=20ms"
	// quietPolicy never fires: no fault, and a timeout no attempt reaches.
	quietPolicy = "retry=2;timeout=10s"
)

func resilienceRows() []resilienceRow {
	var rows []resilienceRow
	for _, single := range []bool{true, false} {
		for _, pl := range degradedPlans {
			rows = append(rows, resilienceRow{wlRead, single, pl})
		}
	}
	rows = append(rows,
		resilienceRow{wlRead, false, timeoutRetryWins},
		resilienceRow{wlRead, true, timeoutRetryWins},
		resilienceRow{wlRead, false, timeoutStorm},
		resilienceRow{wlRead, false, timeoutExhausts},
		resilienceRow{wlRead, true, timeoutExhausts},
		resilienceRow{wlRead, true, "ionode:0:crash@t=50ms..70ms;retry=8;backoff=5ms"},
		resilienceRow{wlRead, true, "ionode:0:crash@t=50ms"},
		resilienceRow{wlRead, false, quietPolicy},
		resilienceRow{wlRead, false, "disk:0:fail@t=50ms;retry=3;backoff=0"},
	)
	// A one-chunk write's device access is its transfer's last event, so
	// these rows fail and retry what would have been the issuer's wake.
	rows = append(rows,
		resilienceRow{wlWrite, true, "ionode:0:crash@t=50ms..70ms;retry=8;backoff=5ms"},
		resilienceRow{wlWrite, true, "ionode:0:crash@t=50ms"},
		resilienceRow{wlWrite, false, degradedPlans[5]},
		resilienceRow{wlWriteThrough, true, degradedPlans[5]},
		resilienceRow{wlWriteThrough, false, degradedPlans[5]},
		resilienceRow{wlWriteThrough, true, degradedPlans[6]},
		resilienceRow{wlWriteThrough, true, "disk:0:fail@t=50ms;retry=3;backoff=0"},
		resilienceRow{wlWriteThrough, false, timeoutRetryWins},
	)
	for _, single := range []bool{true, false} {
		for _, pl := range []string{"", "retry=2", quietPolicy} {
			rows = append(rows,
				resilienceRow{wlPrefetch, single, pl},
				resilienceRow{wlFunnel, single, pl})
		}
	}
	return rows
}

func (r resilienceRow) name() string {
	layout := "all-nodes"
	if r.singleNode {
		layout = "single-node"
	}
	plan := r.plan
	if plan == "" {
		plan = "healthy"
	}
	return fmt.Sprintf("%s/%s/%s", r.workload, layout, plan)
}

// runResilienceRow runs one row and returns its rendered outcome and the
// engine's driver-handoff count.
func runResilienceRow(t *testing.T, r resilienceRow) (string, uint64) {
	t.Helper()
	m, err := machine.ParagonLarge(16)
	if err != nil {
		t.Fatal(err)
	}
	if r.workload == wlWriteThrough {
		m.Node.CacheBytes = 0
	}
	pl, err := fault.Parse(r.plan)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(m, resProcs)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.InstallFaults(pl); err != nil {
		t.Fatal(err)
	}
	layout := sys.DefaultLayout()
	if r.singleNode {
		layout.StripeFactor = 1
	}
	perRank := resChunks * resChunk
	f, err := sys.FS.Create("resilience.data", layout, resProcs*perRank)
	if err != nil {
		t.Fatal(err)
	}
	var funnel *pio.Funnel
	_, runErr := sys.RunRanks(func(p *sim.Proc, rank int) {
		base := int64(rank) * perRank
		switch r.workload {
		case wlRead:
			h := sys.Client(rank, m.Native).Open(p, f)
			for i := int64(0); i < resChunks; i++ {
				h.ReadAt(p, base+i*resChunk, resChunk)
			}
		case wlWrite, wlWriteThrough:
			// One stripe unit per call: every transfer is a single chunk,
			// whose device access is the transfer's last event.
			h := sys.Client(rank, m.Native).Open(p, f)
			for off := base; off < base+perRank; off += layout.StripeUnit {
				h.WriteAt(p, off, layout.StripeUnit)
			}
		case wlPrefetch:
			h := sys.Client(rank, m.Native).Open(p, f)
			pf := pio.NewPrefetcher(h, base, base+perRank, resChunk, 2)
			for pf.Read(p) > 0 {
				p.Delay(2e-3) // compute on the chunk while the next arrives
			}
		case wlFunnel:
			if rank == 0 {
				fn, err := pio.NewFunnel(sys.Comm, sys.Client(0, m.Native).Open(p, f), 64<<10)
				if err != nil {
					panic(err)
				}
				fn.SetRecorders(sys.Recorders)
				funnel = fn
			}
			sys.Comm.Barrier(p, rank) // every rank sees the funnel rank 0 built
			funnel.Write(p, rank, []ooc.Run{{Off: base, Len: perRank}})
		}
	})
	if runErr == nil {
		checkIdle(t, r, sys)
	}
	eng := sys.Eng
	var b strings.Builder
	fmt.Fprintf(&b, "== %s\n", r.name())
	fmt.Fprintf(&b, "now %.9f events %d\n", eng.Now(), eng.Events())
	if runErr != nil {
		fmt.Fprintf(&b, "error %s (%s)\n", runErr, ErrorClass(runErr))
	} else {
		b.WriteString("ok\n")
	}
	for rank, rec := range sys.Recorders {
		for _, op := range trace.Ops {
			st := rec.Get(op)
			if st.Count == 0 {
				continue
			}
			fmt.Fprintf(&b, "rank%d %-6s %+v hist %v\n", rank, op, st, rec.Histogram(op))
		}
	}
	b.WriteString(eng.Metrics().Snapshot(eng.Now()).Table())
	return b.String(), eng.Resumes()
}

// checkIdle fails t unless a finished run left every I/O-node CPU, drive
// and NIC free: an abandoned attempt releases what it held as it finishes.
func checkIdle(t *testing.T, r resilienceRow, sys *System) {
	t.Helper()
	for i := 0; i < sys.FS.NumIONodes(); i++ {
		n := sys.FS.IONode(i)
		if n.CPU().InUse() != 0 || n.DirtyBytes() != 0 {
			t.Errorf("%s: %s left its CPU or cache busy", r.name(), n.Name())
		}
		for d := 0; d < n.NumDisks(); d++ {
			if n.Disk(d).Queue().InUse() != 0 {
				t.Errorf("%s: %s disk %d left busy", r.name(), n.Name(), d)
			}
		}
	}
	for node := 0; node < sys.Topo.NumNodes(); node++ {
		if sys.Net.NIC(node).InUse() != 0 {
			t.Errorf("%s: NIC of node %d left busy", r.name(), node)
		}
	}
}

// TestResilienceGolden pins the fault matrix byte for byte.
func TestResilienceGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, r := range resilienceRows() {
		out, _ := runResilienceRow(t, r)
		buf.WriteString(out)
		buf.WriteString("\n")
	}
	got := buf.String()
	path := filepath.Join("testdata", "resilience.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if string(want) != got {
		t.Fatalf("fault matrix differs from %s; %s", path, firstLineDiff(string(want), got))
	}
}

// firstLineDiff points at the first differing line of two renderings.
func firstLineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d:\n  want: %q\n  got:  %q", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("line count differs: want %d, got %d", len(w), len(g))
}

// The matrix exercises what it claims to: the timeout race fires and a
// retry wins, timeouts can exhaust the retries, and the straight retry
// ladder rides out a transient outage.
func TestResilienceRowsExercisePolicy(t *testing.T) {
	check := func(r resilienceRow, wantOK bool, wantIn ...string) {
		t.Helper()
		out, _ := runResilienceRow(t, r)
		if ok := strings.Contains(out, "\nok\n"); ok != wantOK {
			t.Errorf("%s: ok = %v, want %v", r.name(), ok, wantOK)
		}
		for _, s := range wantIn {
			if !strings.Contains(out, s) {
				t.Errorf("%s: outcome lacks %q:\n%s", r.name(), s, out)
			}
		}
	}
	check(resilienceRow{wlRead, false, timeoutRetryWins}, true)
	check(resilienceRow{wlRead, false, timeoutExhausts}, false, "request timed out", "(io_timeout)")
	check(resilienceRow{wlRead, true, degradedPlans[5]}, true)
	timeouts := regexp.MustCompile(`pfs\.timeouts +(\S+)`)
	for _, r := range []resilienceRow{{wlRead, false, timeoutRetryWins}, {wlRead, false, timeoutExhausts}} {
		out, _ := runResilienceRow(t, r)
		if m := timeouts.FindStringSubmatch(out); m == nil || m[1] == "0" {
			t.Errorf("%s: no request timed out:\n%s", r.name(), out)
		}
	}
}

// A resilience policy costs the issuing ranks no wake: under every
// survivable plan the degraded workload resumes its ranks about as often
// as the healthy run does.
func TestResilienceResumesBounded(t *testing.T) {
	plans := append([]string{timeoutRetryWins, quietPolicy}, degradedPlans...)
	for _, pl := range plans {
		r := resilienceRow{wlRead, false, pl}
		out, resumes := runResilienceRow(t, r)
		if !strings.Contains(out, "\nok\n") {
			continue // a fail-stopped run has nothing to bound
		}
		if resumes > 80 {
			t.Errorf("%s: %d driver resumes, want <= 80", r.name(), resumes)
		}
	}
}
