package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pario/internal/exp"
	sstats "pario/internal/stats"
)

// goldenDir holds every artifact's pinned quick-scale output, relative to
// the repository root.
const goldenDir = "internal/exp/testdata/golden"

// passEvents is the kernel event count of one quick pass over every
// registered artifact. It is a pure function of the model, so a pass that
// simulates any other number has changed simulated behaviour.
const passEvents = 1254482

// snapCounters maps per-layer count metrics to the stats-snapshot counters
// they sum.
var snapCounters = []struct {
	metric string
	from   []string
}{
	{"disk.seeks", []string{"disk.seeks"}},
	{"disk.bytes", []string{"disk.bytes_read", "disk.bytes_written"}},
	{"ionode.requests", []string{"ionode.requests"}},
	{"ionode.writeback_bytes", []string{"ionode.writeback_bytes"}},
	{"net.msgs", []string{"net.msgs"}},
	{"net.bytes", []string{"net.bytes"}},
	{"pfs.transfers", []string{"pfs.transfers"}},
	{"pfs.chunks", []string{"pfs.chunks"}},
	{"pfs.retries", []string{"pfs.retries"}},
	{"pio.independent_ops", []string{"pio.independent_ops"}},
	{"pio.collective_ops", []string{"pio.collective_ops"}},
	{"pio.prefetch_hits", []string{"pio.prefetch_hits"}},
	{"pio.prefetch_misses", []string{"pio.prefetch_misses"}},
	{"fault.injections", []string{"fault.injections"}},
}

// setSnapCounters reports the exact layer counts of snap on o.
func setSnapCounters(o *outcome, snap *sstats.Snapshot) {
	vals := map[string]int64{}
	if snap != nil {
		for _, c := range snap.Counters {
			vals[c.Name] = c.Value
		}
	}
	for _, sc := range snapCounters {
		var v int64
		for _, name := range sc.from {
			v += vals[name]
		}
		o.setLayer(sc.metric, float64(v))
	}
}

type artifactsSetup struct {
	order  []*exp.Experiment
	golden map[string][]byte
}

// pass is one golden-checked run of every artifact.
type pass struct {
	wall  time.Duration
	stats exp.Stats
	snap  *sstats.Snapshot
}

// runPass runs every artifact at quick scale in the seeded order, renders
// output plus metrics table exactly as the golden test does, and compares
// each with its golden file.
func runPass(e *env, st *artifactsSetup, o *outcome) pass {
	exp.TakeStats()
	exp.TakeSnapshot()
	id := e.tr.newID()
	p := pass{snap: &sstats.Snapshot{}}
	start := time.Now()
	for _, x := range st.order {
		t0 := time.Now()
		var buf bytes.Buffer
		o.attempted++
		err := x.Run(&buf, exp.Quick)
		snap := exp.TakeSnapshot()
		if snap != nil {
			buf.WriteString("\n-- metrics --\n")
			buf.WriteString(snap.Table())
		}
		p.snap.Merge(snap)
		p.stats.Add(exp.TakeStats())
		e.tr.record(0, id, "exp.Run", x.ID, 1, t0, time.Now())
		switch {
		case err != nil:
			o.fail("%s: %v", x.ID, err)
		case !bytes.Equal(buf.Bytes(), st.golden[x.ID]):
			o.fail("%s: output differs from %s/%s.txt", x.ID, goldenDir, x.ID)
		}
	}
	p.wall = time.Since(start)
	e.tr.record(id, 0, "artifacts.pass", "", 1, start, start.Add(p.wall))
	if p.stats.Events != passEvents {
		o.fail("pass simulated %d events, want %d", p.stats.Events, passEvents)
	}
	return p
}

func runArtifacts(e *env, seconds float64) (*outcome, error) {
	o := &outcome{}
	exp.SetWorkers(e.procs)
	setup := func() (*artifactsSetup, error) {
		st := &artifactsSetup{order: exp.All(), golden: map[string][]byte{}}
		for _, x := range st.order {
			b, err := os.ReadFile(filepath.Join(goldenDir, x.ID+".txt"))
			if err != nil {
				return nil, err
			}
			st.golden[x.ID] = b
		}
		shuffle(newRNG(e.seed, "artifact-order"), st.order)
		// One untimed pass warms the allocator and every lazy table, so
		// timed passes all see the same steady state.
		runPass(e, st, o)
		return st, nil
	}
	st, err := timeSetup(o, 3, setup, func(*artifactsSetup) {})
	if err != nil {
		return nil, err
	}

	var walls, nsPerEvent, conc, pointMs []float64
	var last pass
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(walls) == 0 || time.Now().Before(deadline) {
		last = runPass(e, st, o)
		s := last.stats
		walls = append(walls, last.wall.Seconds())
		nsPerEvent = append(nsPerEvent, float64(s.WallSum.Nanoseconds())/float64(max(s.Events, 1)))
		conc = append(conc, s.Concurrency())
		pointMs = append(pointMs, float64(s.WallSum.Nanoseconds())/1e6/float64(max(s.Points, 1)))
	}
	suite := median(walls)
	o.p50Ms = suite * 1000
	o.tailMs = percentile(walls, 90) * 1000
	o.throughput = float64(passEvents) / suite
	o.display = []shown{
		{"suite_s", metric{suite, "s"}},
		{"suite_p90_s", metric{o.tailMs / 1000, "s"}},
		{"sim_mevents_s", metric{o.throughput / 1e6, "Mevents/s"}},
		{"passes", metric{float64(len(walls)), "count"}},
	}
	if e.tr == nil {
		return o, nil
	}
	o.setLayer("sim.events", float64(last.stats.Events))
	o.setLayer("sim.ns_per_event", median(nsPerEvent))
	o.setLayer("exp.points", float64(last.stats.Points))
	o.setLayer("exp.concurrency", median(conc))
	o.setLayer("exp.point_ms_mean", median(pointMs))
	setSnapCounters(o, last.snap)
	if err := runSimProbes(e, o); err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	return o, nil
}
