package main

import (
	"fmt"
	"math"
	"net/url"
	"sort"
	"strconv"

	"pario/internal/serve"
	"pario/internal/trace"
)

// Seeded workload generation. Everything a run sends is drawn here from
// --seed; the program under test only ever sees the generated requests.

// rng is splitmix64: tiny, fast and fixed forever, so a seed names the same
// inputs on every commit regardless of changes to the program's own RNGs.
type rng struct{ s uint64 }

// newRNG derives an independent stream for one purpose from the run seed.
func newRNG(seed uint64, stream string) *rng {
	r := &rng{s: seed ^ 0x9e3779b97f4a7c15}
	for i := 0; i < len(stream); i++ {
		r.s ^= uint64(stream[i]) << (8 * (i % 8))
		r.next()
	}
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n) without modulo bias.
func (r *rng) intn(n int) int {
	if n <= 1 {
		return 0
	}
	limit := math.MaxUint64 - math.MaxUint64%uint64(n)
	for {
		if v := r.next(); v < limit {
			return int(v % uint64(n))
		}
	}
}

// float returns a value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func shuffle[T any](r *rng, xs []T) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// zipf draws ranks 0..n-1 with probability proportional to 1/(rank+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	sum := 0.0
	for i := range z.cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

func (z *zipf) draw(r *rng) int {
	u := r.float()
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// runQuery renders a request as /run query parameters, omitting zero
// fields so the server resolves the same defaults Canonicalize does.
func runQuery(r serve.Request) string {
	q := url.Values{}
	q.Set("app", r.App)
	setInt := func(name string, v int) {
		if v != 0 {
			q.Set(name, strconv.Itoa(v))
		}
	}
	setStr := func(name, v string) {
		if v != "" {
			q.Set(name, v)
		}
	}
	setInt("procs", r.Procs)
	setInt("ionodes", r.IONodes)
	setInt("cached_pct", r.CachedPct)
	if r.Opt {
		q.Set("opt", "true")
	}
	setStr("input", r.Input)
	setStr("version", r.Version)
	setStr("class", r.Class)
	setStr("faults", r.Faults)
	setStr("trace", r.Trace)
	return q.Encode()
}

var (
	largeIONodes = []int{12, 16, 64}
	smallIONodes = []int{2, 4}
	scf11Versns  = []string{"original", "passion", "prefetch"}
	traceIfaces  = []string{"fortran", "passion", "native"}
)

// ---- serve-hot ----

const (
	hotSetSize     = 128
	hotZipfS       = 0.8
	hotEstimatePct = 0.10
)

// hotApps is the hot set's app by Zipf rank, repeated: half scf30, a
// quarter scf11, the rest fft and ast. A fixed pattern keeps the traffic
// share of each app, and so of each body-size class, the same for every
// seed.
var hotApps = []string{"scf30", "scf11", "scf30", "fft", "scf30", "scf11", "scf30", "ast"}

// hotSet draws the seeded hot set: cheap configurations (each simulates in
// well under 50 ms), in Zipf rank order.
func hotSet(seed uint64) []serve.Request {
	r := newRNG(seed, "hot-set")
	seen := make(map[string]bool)
	var out []serve.Request
	for len(out) < hotSetSize {
		var q serve.Request
		switch hotApps[len(out)%len(hotApps)] {
		case "scf30":
			q = serve.Request{App: "scf30", Input: "SMALL", Procs: 1 + r.intn(8),
				IONodes: largeIONodes[r.intn(3)], CachedPct: 1 + r.intn(100)}
		case "scf11":
			q = serve.Request{App: "scf11", Input: "SMALL", Procs: 1 + r.intn(8),
				IONodes: largeIONodes[r.intn(3)], Version: scf11Versns[r.intn(2)]}
		case "fft":
			q = serve.Request{App: "fft", Opt: true, Procs: 1 + r.intn(16), IONodes: smallIONodes[r.intn(2)]}
		default:
			q = serve.Request{App: "ast", Opt: true, Procs: 1 + r.intn(8), IONodes: largeIONodes[r.intn(3)]}
		}
		c, err := serve.Canonicalize(q)
		if err != nil {
			panic(fmt.Sprintf("hot set: %v", err)) // the generator only emits valid configurations
		}
		if k := c.Key(); !seen[k] {
			seen[k] = true
			out = append(out, c)
		}
	}
	return out
}

// hotOp is one serve-hot request: a hot-set rank, or (estimate) the next
// fresh estimate-mode key.
type hotOp struct {
	estimate bool
	rank     int
}

// hotStream is one closed-loop client's op sequence.
type hotStream struct {
	r *rng
	z *zipf
}

func newHotStream(seed uint64, client int) *hotStream {
	return &hotStream{r: newRNG(seed, fmt.Sprintf("hot-client-%d", client)), z: newZipf(hotSetSize, hotZipfS)}
}

func (h *hotStream) next() hotOp {
	if h.r.float() < hotEstimatePct {
		return hotOp{estimate: true}
	}
	return hotOp{rank: h.z.draw(h.r)}
}

// estimateSpace is the fresh-key space serve-hot's estimate requests walk:
// scf30 over procs 1..512, three I/O partitions, three inputs and
// cached_pct 1..100.
const estimateSpace = 512 * 3 * 3 * 100

// estimateReq returns the i-th fresh estimate request of a seeded
// permutation of estimateSpace: distinct for every i < estimateSpace.
func estimateReq(seed uint64, i int) serve.Request {
	r := newRNG(seed, "estimate-perm")
	// A multiplier coprime to 2, 3 and 5 is coprime to estimateSpace, so
	// i -> (a*i+b) mod N is a bijection.
	a := int(r.next()%(estimateSpace/30))*30 + 7
	b := r.intn(estimateSpace)
	x := (a*i + b) % estimateSpace
	cp := 1 + x%100
	x /= 100
	in := []string{"SMALL", "MEDIUM", "LARGE"}[x%3]
	x /= 3
	io := largeIONodes[x%3]
	x /= 3
	return serve.Request{App: "scf30", Procs: 1 + x, IONodes: io, Input: in, CachedPct: cp}
}

// ---- serve-cold ----

// coldReq is one interactive cold request; Trace requests also carry the
// uploaded trace so the benchmark can execute them itself.
type coldReq struct {
	canon serve.Request
	key   string
	query string
	tr    *trace.Trace
}

// sweepBlock is one /sweep request and the canonical points it expands to.
type sweepBlock struct {
	spec   serve.SweepSpec
	points []serve.SweepPoint
}

// coldTraces generates the seeded traces serve-cold uploads in set-up and
// replays as app "trace": twelve small adversarial traces.
func coldTraces(seed uint64) []*trace.Trace {
	r := newRNG(seed, "cold-traces")
	seen := make(map[string]bool)
	var out []*trace.Trace
	for len(out) < 12 {
		ranks := []int{2, 4, 8}[r.intn(3)]
		var t *trace.Trace
		switch len(out) % 3 {
		case 0:
			t = trace.Generate("smallwrites", ranks, 16+r.intn(48), r.next())
		case 1:
			t = trace.Generate("appendstorm", ranks, 16+r.intn(48), 0)
		default:
			t = trace.Generate("checkpoint", ranks, 4+r.intn(8), 0)
		}
		if h := t.Hash(); !seen[h] {
			seen[h] = true
			out = append(out, t)
		}
	}
	return out
}

// coldBlock is the interactive stream's app mix: every ten requests are
// one block with exactly this composition, in seeded order, so the mix
// does not vary with the seed. The first coldBTIOBlocks blocks send btio,
// whose cheap configurations are few, in place of one scf30; a category
// whose pool runs dry is replaced by scf30 too.
var coldBlock = []string{"scf30", "scf30", "scf30", "scf30", "scf11", "scf11", "fft", "ast", "trace", "faulted"}

const coldBTIOBlocks = 4

// faultPlan draws one survivable fault plan: a degraded drive, an I/O
// node stall or a slowed network, never a failure or crash.
func faultPlan(r *rng) string {
	a := r.intn(60)
	switch r.intn(3) {
	case 0:
		return fmt.Sprintf("disk:degrade=%d@t=%dms..%dms", 2+r.intn(7), a, a+10+r.intn(200))
	case 1:
		return fmt.Sprintf("ionode:stall=%dms@t=%dms", 1+r.intn(40), a)
	default:
		return fmt.Sprintf("link:slow=%dx@t=%dms..%dms", 2+r.intn(3), a, a+10+r.intn(200))
	}
}

// coldGrids draws the two disjoint cold grids: n interactive requests and
// sweep blocks covering at least nSweep points. Every key across both is
// distinct, so every request of a run is a cache miss.
func coldGrids(seed uint64, traces []*trace.Trace, n, nSweep int) ([]coldReq, []sweepBlock, error) {
	seen := make(map[string]bool)

	// Sweep blocks: scf30 with even cached_pct and scf11 with procs above
	// 32 — neither overlaps the interactive pools below.
	r := newRNG(seed, "cold-sweep")
	var specs []serve.SweepSpec
	for p := 1; p <= 64; p++ {
		for _, io := range largeIONodes {
			evens := make([]int, 50)
			for i := range evens {
				evens[i] = 2 * (i + 1)
			}
			shuffle(r, evens)
			for b := 0; b+4 <= len(evens); b += 4 {
				specs = append(specs, serve.SweepSpec{App: "scf30", Input: "SMALL",
					Procs: strconv.Itoa(p), IONodes: strconv.Itoa(io),
					CachedPct: fmt.Sprintf("%d,%d,%d,%d", evens[b], evens[b+1], evens[b+2], evens[b+3])})
			}
			if p > 32 {
				specs = append(specs, serve.SweepSpec{App: "scf11", Input: "SMALL",
					Procs: strconv.Itoa(p), IONodes: strconv.Itoa(io), Version: "original,passion,prefetch"})
			}
		}
	}
	shuffle(r, specs)
	var blocks []sweepBlock
	pts := 0
	for _, spec := range specs {
		if pts >= nSweep {
			break
		}
		points, _, _, err := serve.ExpandSweep(spec, 4096)
		if err != nil {
			return nil, nil, fmt.Errorf("sweep block %+v: %w", spec, err)
		}
		for _, p := range points {
			seen[p.Key] = true
		}
		blocks = append(blocks, sweepBlock{spec: spec, points: points})
		pts += len(points)
	}

	// Interactive pools, each shuffled; draws take from the front.
	r = newRNG(seed, "cold-interactive")
	pools := map[string][]serve.Request{}
	for p := 2; p <= 16; p++ {
		for _, io := range largeIONodes {
			for cp := 21; cp <= 99; cp += 2 {
				pools["scf30"] = append(pools["scf30"], serve.Request{App: "scf30", Input: "SMALL", Procs: p, IONodes: io, CachedPct: cp})
			}
		}
	}
	for p := 1; p <= 32; p++ {
		for _, io := range largeIONodes {
			for _, v := range scf11Versns {
				pools["scf11"] = append(pools["scf11"], serve.Request{App: "scf11", Input: "SMALL", Procs: p, IONodes: io, Version: v})
			}
			pools["ast"] = append(pools["ast"], serve.Request{App: "ast", Opt: true, Procs: p, IONodes: io})
		}
	}
	for p := 1; p <= 56; p++ {
		for _, io := range smallIONodes {
			pools["fft"] = append(pools["fft"], serve.Request{App: "fft", Opt: true, Procs: p, IONodes: io})
		}
	}
	for _, io := range smallIONodes {
		pools["fft"] = append(pools["fft"], serve.Request{App: "fft", Procs: 1, IONodes: io})
	}
	pools["btio"] = []serve.Request{
		{App: "btio", Opt: true, Procs: 1}, {App: "btio", Opt: true, Procs: 4},
		{App: "btio", Opt: true, Procs: 9}, {App: "btio", Opt: true, Procs: 1, Class: "B"},
	}
	traceOf := map[string]*trace.Trace{}
	for _, t := range traces {
		h := t.Hash()
		traceOf[h] = t
		for _, v := range traceIfaces {
			for _, opt := range []bool{false, true} {
				for _, io := range largeIONodes {
					pools["trace"] = append(pools["trace"], serve.Request{App: "trace", Trace: h, Version: v, Opt: opt, IONodes: io})
				}
			}
		}
	}
	for _, name := range []string{"scf30", "scf11", "fft", "ast", "btio", "trace"} {
		shuffle(r, pools[name])
	}

	var out []coldReq
	var block []string
	for len(out) < n {
		if len(block) == 0 {
			block = append([]string(nil), coldBlock...)
			if len(out) < coldBTIOBlocks*len(coldBlock) {
				block[0] = "btio"
			}
			shuffle(r, block)
		}
		cat := block[0]
		block = block[1:]
		if cat != "faulted" && len(pools[cat]) == 0 {
			cat = "scf30"
		}
		var q serve.Request
		if cat == "faulted" {
			if r.intn(2) == 0 {
				q = serve.Request{App: "scf11", Input: "SMALL", Procs: 1 + r.intn(8), IONodes: largeIONodes[r.intn(3)]}
			} else {
				q = serve.Request{App: "scf30", Input: "SMALL", Procs: 1 + r.intn(8), IONodes: largeIONodes[r.intn(3)], CachedPct: 21 + 2*r.intn(40)}
			}
			q.Faults = faultPlan(r)
		} else {
			q, pools[cat] = pools[cat][0], pools[cat][1:]
		}
		c, err := serve.Canonicalize(q)
		if err != nil {
			return nil, nil, fmt.Errorf("cold grid: %w", err)
		}
		k := c.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, coldReq{canon: c, key: k, query: runQuery(c), tr: traceOf[c.Trace]})
	}
	return out, blocks, nil
}
