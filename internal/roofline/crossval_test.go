package roofline_test

// The cross-validation suite: every golden artifact contributes at least
// one request-space point, each estimated analytically AND simulated
// exactly, and the relative deviation must stay inside the committed
// per-point tolerance band (testdata/crossval.json, -update recomputes the
// bands with 1.5x headroom over the measured deviation, 10% floor). On top
// of the bands, the suite pins the paper's regime calls: the fig2
// crossover (optimized SCF wins at 4 processes, loses to the unoptimized
// code at 256 on a 64-node partition) and the fig7 bandwidth regimes
// (independent BTIO is seek-bound, collective BTIO disk-bandwidth-bound).
// Artifacts whose workloads live outside the request space (modes, sieve,
// patterns) are validated through their nearest request-space regime; the
// note field in testdata records each mapping.

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"pario/internal/request"
	"pario/internal/roofline"
)

var (
	update          = flag.Bool("update", false, "rewrite crossval tolerance bands from measured deviations")
	deviationReport = flag.String("deviation-report", "", "write the per-point predicted-vs-simulated report (TSV) to this path")
)

type cvPoint struct {
	Artifact   string          `json:"artifact"`
	Name       string          `json:"name"`
	Request    request.Request `json:"request"`
	Band       float64         `json:"band"`
	Bottleneck string          `json:"bottleneck,omitempty"`
	Note       string          `json:"note,omitempty"`
}

type cvFile struct {
	Points []cvPoint `json:"points"`
}

type cvResult struct {
	point     cvPoint
	est       *roofline.Estimate
	simSec    float64
	deviation float64 // (predicted - simulated) / simulated
	err       error
}

const crossvalPath = "testdata/crossval.json"

func loadCrossval(t *testing.T) cvFile {
	t.Helper()
	raw, err := os.ReadFile(crossvalPath)
	if err != nil {
		t.Fatalf("read %s: %v", crossvalPath, err)
	}
	var f cvFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatalf("parse %s: %v", crossvalPath, err)
	}
	return f
}

// runAll estimates and simulates every point on a bounded worker pool.
func runAll(t *testing.T, points []cvPoint) []cvResult {
	t.Helper()
	results := make([]cvResult, len(points))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, p := range points {
		wg.Add(1)
		go func(i int, p cvPoint) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			res := cvResult{point: p}
			canon, err := request.Canonicalize(p.Request)
			if err != nil {
				res.err = fmt.Errorf("canonicalize: %w", err)
				results[i] = res
				return
			}
			res.est, err = request.Estimate(canon)
			if err != nil {
				res.err = fmt.Errorf("estimate: %w", err)
				results[i] = res
				return
			}
			rep, err := request.Run(context.Background(), canon)
			if err != nil {
				res.err = fmt.Errorf("simulate: %w", err)
				results[i] = res
				return
			}
			res.simSec = rep.ExecSec
			if res.simSec > 0 {
				res.deviation = (res.est.ElapsedSec - res.simSec) / res.simSec
			}
			results[i] = res
		}(i, p)
	}
	wg.Wait()
	return results
}

func byName(results []cvResult) map[string]cvResult {
	m := make(map[string]cvResult, len(results))
	for _, r := range results {
		m[r.point.Name] = r
	}
	return m
}

// goldenArtifacts lists the committed golden artifact IDs, minus the
// ones estimate mode refuses by design: the faulted artifact (no fault
// plans) and the trace-replay artifact (the analytic model prices the
// closed-form app kernels, not arbitrary recorded logs).
func goldenArtifacts(t *testing.T) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join("..", "exp", "testdata", "golden", "*.txt"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("golden artifact listing failed: %v (%d files)", err, len(matches))
	}
	var ids []string
	for _, m := range matches {
		id := strings.TrimSuffix(filepath.Base(m), ".txt")
		if id == "degraded" || id == "tracerep" {
			continue
		}
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

func TestCrossValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale paper runs")
	}
	f := loadCrossval(t)

	// Coverage first: every committed golden artifact must contribute.
	covered := make(map[string]bool)
	for _, p := range f.Points {
		covered[p.Artifact] = true
	}
	for _, id := range goldenArtifacts(t) {
		if !covered[id] {
			t.Errorf("golden artifact %q has no cross-validation point", id)
		}
	}

	results := runAll(t, f.Points)

	for i := range results {
		r := &results[i]
		if r.err != nil {
			t.Errorf("%s/%s: %v", r.point.Artifact, r.point.Name, r.err)
			continue
		}
		t.Logf("%-8s %-34s predicted %10.1fs simulated %10.1fs dev %+6.1f%% band ±%.0f%% bound %s",
			r.point.Artifact, r.point.Name, r.est.ElapsedSec, r.simSec,
			100*r.deviation, 100*r.point.Band, r.est.Bottleneck)
		if !*update {
			if math.Abs(r.deviation) > r.point.Band {
				t.Errorf("%s/%s: deviation %+.1f%% outside tolerance band ±%.0f%% (predicted %.2fs, simulated %.2fs)",
					r.point.Artifact, r.point.Name, 100*r.deviation, 100*r.point.Band,
					r.est.ElapsedSec, r.simSec)
			}
		}
		if want := r.point.Bottleneck; want != "" && string(r.est.Bottleneck) != want {
			t.Errorf("%s/%s: predicted bottleneck %s, paper regime expects %s",
				r.point.Artifact, r.point.Name, r.est.Bottleneck, want)
		}
	}

	named := byName(results)
	assertFig2Crossover(t, named)
	assertFig7Regimes(t, named)

	if *deviationReport != "" {
		writeDeviationReport(t, results)
	}
	if *update {
		updateBands(t, f, results)
	}
}

// assertFig2Crossover pins the paper's Figure 2 story on the estimates
// themselves: at 4 processes the optimized code (prefetch, 16 I/O nodes)
// beats the original on 64 I/O nodes; at 256 processes the ordering flips
// — per-process I/O shrinks until software overhead stops mattering and
// the architecture (the 16-node disk ceiling) gates the optimized run.
func assertFig2Crossover(t *testing.T, named map[string]cvResult) {
	get := func(name string) *roofline.Estimate {
		r, ok := named[name]
		if !ok || r.err != nil || r.est == nil {
			t.Fatalf("fig2 crossover: missing point %s", name)
		}
		return r.est
	}
	unopt4 := get("scf11-large-original-p4-64io")
	opt4 := get("scf11-large-prefetch-p4-16io")
	unopt256 := get("scf11-large-original-p256-64io")
	opt256 := get("scf11-large-prefetch-p256-16io")
	if opt4.ElapsedSec >= unopt4.ElapsedSec {
		t.Errorf("fig2: predicted opt4 (%.1fs) should beat unopt4 (%.1fs)", opt4.ElapsedSec, unopt4.ElapsedSec)
	}
	if unopt256.ElapsedSec >= opt256.ElapsedSec {
		t.Errorf("fig2: predicted unopt256 (%.1fs) should beat opt256 (%.1fs) past the crossover", unopt256.ElapsedSec, opt256.ElapsedSec)
	}
	if unopt4.Bottleneck != roofline.OverheadBound {
		t.Errorf("fig2: unoptimized SCF should be overhead_bound, got %s", unopt4.Bottleneck)
	}
	if b := opt256.Bottleneck; b != roofline.DiskBWBound && b != roofline.SeekBound {
		t.Errorf("fig2: optimized SCF at 256 procs should be disk-bound, got %s", b)
	}
}

// assertFig7Regimes pins the Figure 7 bandwidth regimes: independent BTIO
// shatters each dump into cell-edge runs and is seek-bound; collective
// buffering conforms the requests and moves the binding ceiling to disk
// bandwidth, with a predicted bandwidth an order of magnitude higher.
func assertFig7Regimes(t *testing.T, named map[string]cvResult) {
	orig, ok1 := named["btio-a-p64-independent"]
	coll, ok2 := named["btio-a-p64-collective"]
	if !ok1 || !ok2 || orig.err != nil || coll.err != nil {
		t.Fatalf("fig7 regimes: missing btio points")
	}
	if orig.est.Bottleneck != roofline.SeekBound {
		t.Errorf("fig7: independent BTIO should be seek_bound, got %s", orig.est.Bottleneck)
	}
	if coll.est.Bottleneck != roofline.DiskBWBound {
		t.Errorf("fig7: collective BTIO should be disk_bw_bound, got %s", coll.est.Bottleneck)
	}
	if coll.est.ElapsedSec >= orig.est.ElapsedSec {
		t.Errorf("fig7: collective (%.1fs) should beat independent (%.1fs)", coll.est.ElapsedSec, orig.est.ElapsedSec)
	}
}

func writeDeviationReport(t *testing.T, results []cvResult) {
	t.Helper()
	var b strings.Builder
	b.WriteString("artifact\tpoint\tpredicted_sec\tsimulated_sec\tdeviation_pct\tband_pct\tbottleneck\n")
	for _, r := range results {
		if r.err != nil {
			fmt.Fprintf(&b, "%s\t%s\terror: %v\n", r.point.Artifact, r.point.Name, r.err)
			continue
		}
		fmt.Fprintf(&b, "%s\t%s\t%.3f\t%.3f\t%+.1f\t%.0f\t%s\n",
			r.point.Artifact, r.point.Name, r.est.ElapsedSec, r.simSec,
			100*r.deviation, 100*r.point.Band, r.est.Bottleneck)
	}
	if err := os.WriteFile(*deviationReport, []byte(b.String()), 0o644); err != nil {
		t.Fatalf("write deviation report: %v", err)
	}
	t.Logf("deviation report written to %s", *deviationReport)
}

// updateBands rewrites testdata with bands at 1.5x the measured deviation
// (10% floor, rounded up to 5% steps); bottleneck expectations and notes
// are preserved — those are regime calls, not measurements.
func updateBands(t *testing.T, f cvFile, results []cvResult) {
	t.Helper()
	for i := range f.Points {
		r := results[i]
		if r.err != nil {
			continue
		}
		band := math.Max(0.10, 1.5*math.Abs(r.deviation))
		f.Points[i].Band = math.Ceil(band*20) / 20
	}
	raw, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		t.Fatalf("marshal crossval: %v", err)
	}
	if err := os.WriteFile(crossvalPath, append(raw, '\n'), 0o644); err != nil {
		t.Fatalf("rewrite %s: %v", crossvalPath, err)
	}
	t.Logf("tolerance bands updated in %s", crossvalPath)
}
