// Command pariod is the simulation-serving daemon: a long-running HTTP
// JSON service over the iosim parameter space, with job scheduling on a
// bounded worker pool, a content-addressed result cache, singleflight
// collapsing of concurrent identical requests, queue-bound backpressure
// (429) and per-request timeouts that cancel the simulation itself.
//
// Usage:
//
//	pariod                         # serve on :8080
//	pariod -addr 127.0.0.1:0       # ephemeral port (printed on startup)
//	pariod -workers 8 -queue 128 -cache 1024 -timeout 30s
//	pariod -batch-queue 512 -max-sweep-points 8192 -max-sweeps 2
//	pariod -pprof-addr 127.0.0.1:6060      # net/http/pprof on its own listener
//	pariod -cache-dir /var/lib/pario -cache-disk-bytes 1073741824
//	                                       # persistent disk (L2) result cache
//	pariod -addr :7471 -node-id 0 \
//	       -peers 127.0.0.1:7471,127.0.0.1:7472,127.0.0.1:7473
//	                                       # one node of a sharded cluster
//
// Endpoints:
//
//	POST /run      {"app":"fft","procs":8,"opt":true}   (or GET with query params)
//	GET  /sweep    ?app=fft&procs=1,2,4,8&ionodes=1..16&opt=both   (ranges expand
//	               server-side; results stream back as NDJSON, one line per point,
//	               on a lower-priority batch lane; ?format=sse for event streams)
//	POST /trace    (body: a trace file, text or binary encoding) registers the
//	               trace and answers its content hash; replay it with
//	               {"app":"trace","trace":"<hash>"} on /run or /sweep, or inline
//	               the upload as base64 "trace_data" on the run request itself
//	GET  /trace    ?trace=<hash> returns the registered trace's text encoding
//	GET  /healthz
//	GET  /metrics
//
// Both /run and /sweep also take ?mode=estimate: the request (or the whole
// expanded grid) is answered from the analytic roofline model instead of
// simulating — inline, in microseconds, without consuming a scheduler
// slot. Estimates are cached under mode-marked keys disjoint from the
// exact results; fault-plan requests answer a structured 422
// (estimate_unsupported).
//
// Cluster mode (-peers + -node-id) shards the content-address space across
// a static peer list with rendezvous hashing: each key's owner simulates
// it, every other node proxies /run there and fans /sweep points out, so
// the cluster as a whole never simulates a key twice. Every node takes the
// identical -peers list; -node-id is this node's position in it. The disk
// cache (-cache-dir) persists results across restarts: a restarted node
// re-serves everything it ever simulated without re-running the kernel.
//
// /healthz is liveness (200 while the process is alive, draining included);
// /healthz?ready=1 is readiness (503 once draining starts).
//
// SIGINT/SIGTERM drain gracefully: in-flight runs finish and their
// responses are written in full before the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pario/internal/cluster"
	"pario/internal/diskcache"
	"pario/internal/serve"
)

// startPprof serves the net/http/pprof handlers on their own listener and
// mux — never the service mux, so profiling exposure is an explicit,
// separately addressable choice (loopback by default in production). The
// bound address is returned for the startup log.
func startPprof(addr string) (net.Addr, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go func() { _ = http.Serve(ln, mux) }()
	return ln.Addr(), nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil, nil))
}

// run is the whole daemon behind a testable seam: argv in, exit code out.
// ready, when non-nil, receives the bound address once the listener is up;
// closing stop triggers the same graceful drain a signal would. Both are
// nil in production.
func run(args []string, stdout, stderr io.Writer, ready chan<- string, stop <-chan struct{}) int {
	fs := flag.NewFlagSet("pariod", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", ":8080", "listen address (port 0 picks a free port)")
		workers    = fs.Int("workers", 0, "simulation worker pool size (0 = GOMAXPROCS)")
		queue      = fs.Int("queue", 64, "interactive (/run) admission queue depth; a full queue answers 429")
		batchQueue = fs.Int("batch-queue", 256, "batch (/sweep) lane queue depth; sweeps block on it as flow control")
		cache      = fs.Int("cache", 512, "result cache capacity in entries")
		cacheBytes = fs.Int64("cache-bytes", 0, "additional in-memory cache bound in total body bytes (0 = entries only)")
		cacheDir   = fs.String("cache-dir", "", "persistent disk (L2) result cache directory (empty = off)")
		diskBytes  = fs.Int64("cache-disk-bytes", 1<<30, "disk cache size bound in bytes (with -cache-dir)")
		peers      = fs.String("peers", "", "comma-separated cluster peer list, this node included (empty = single-node)")
		nodeID     = fs.Int("node-id", 0, "this node's index into -peers")
		timeout    = fs.Duration("timeout", 60*time.Second, "per-request ceiling (requests may ask for less via ?timeout_sec=)")
		maxPoints  = fs.Int("max-sweep-points", 4096, "largest expanded grid one /sweep may name")
		maxSweeps  = fs.Int("max-sweeps", 4, "concurrently streaming sweeps; excess sweeps answer 429")
		traceStore = fs.Int64("trace-store-bytes", 256<<20, "uploaded-trace registry bound in canonical-encoding bytes (LRU)")
		traceMax   = fs.Int64("trace-max-bytes", 32<<20, "largest single trace upload accepted")
		pprofAddr  = fs.String("pprof-addr", "", "serve net/http/pprof on this address (empty = off)")
		drain      = fs.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *pprofAddr != "" {
		paddr, err := startPprof(*pprofAddr)
		if err != nil {
			fmt.Fprintf(stderr, "pariod: pprof: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "pariod: pprof on http://%s/debug/pprof/\n", paddr)
	}

	var ring *cluster.Ring
	if *peers != "" {
		list, err := cluster.ParsePeers(*peers)
		if err != nil {
			fmt.Fprintf(stderr, "pariod: %v\n", err)
			return 2
		}
		ring, err = cluster.New(list, *nodeID)
		if err != nil {
			fmt.Fprintf(stderr, "pariod: %v\n", err)
			return 2
		}
	}

	var l2 *diskcache.Cache
	if *cacheDir != "" {
		var err error
		l2, err = diskcache.Open(*cacheDir, *diskBytes)
		if err != nil {
			fmt.Fprintf(stderr, "pariod: disk cache: %v\n", err)
			return 1
		}
		defer l2.Close()
		fmt.Fprintf(stdout, "pariod: disk cache %s: %d entries, %d bytes recovered\n",
			l2.Dir(), l2.Len(), l2.Bytes())
	}

	srv := serve.New(serve.Options{
		Workers:         *workers,
		QueueDepth:      *queue,
		BatchQueueDepth: *batchQueue,
		CacheEntries:    *cache,
		CacheBytes:      *cacheBytes,
		L2:              l2,
		Cluster:         ring,
		Timeout:         *timeout,
		MaxSweepPoints:  *maxPoints,
		MaxSweeps:       *maxSweeps,
		TraceStoreBytes: *traceStore,
		TraceMaxBytes:   *traceMax,
	})
	bound, err := srv.Start(*addr)
	if err != nil {
		fmt.Fprintf(stderr, "pariod: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "pariod: listening on http://%s\n", bound)
	if ring != nil {
		fmt.Fprintf(stdout, "pariod: cluster node %d of %d, self %s\n",
			ring.Self().ID, ring.Len(), ring.Self().URL)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	if ready != nil {
		ready <- bound.String()
	}
	var cause string
	select {
	case s := <-sig:
		cause = s.String()
	case <-stop:
		cause = "stop"
	}
	fmt.Fprintf(stdout, "pariod: %s, draining (up to %v)\n", cause, *drain)

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(stderr, "pariod: drain incomplete: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, "pariod: drained, bye")
	return 0
}
