package main

// layerMetric is one per-layer metric of a traced run. README.md names the
// end-to-end metric and workload each one is predicted to move.
type layerMetric struct {
	name, unit, better string
}

// perLayer is every per-layer metric, grouped by layer. Layer names are
// the program's module names.
var perLayer = []layerMetric{
	// sim, exp: the kernel and the experiment runner.
	{"sim.events", "count", "lower"},
	{"sim.ns_per_event", "ns", "lower"},
	{"sim.dispatch_ns", "ns", "lower"},
	{"exp.points", "count", "higher"},
	{"exp.concurrency", "ratio", "higher"},
	{"exp.point_ms_mean", "ms", "lower"},

	// Exact work counts of the modelled layers.
	{"disk.seeks", "count", "lower"},
	{"disk.bytes", "B", "lower"},
	{"ionode.requests", "count", "lower"},
	{"ionode.writeback_bytes", "B", "lower"},
	{"net.msgs", "count", "lower"},
	{"net.bytes", "B", "lower"},
	{"pfs.transfers", "count", "lower"},
	{"pfs.chunks", "count", "lower"},
	{"pfs.retries", "count", "lower"},
	{"pio.independent_ops", "count", "lower"},
	{"pio.collective_ops", "count", "lower"},
	{"pio.prefetch_hits", "count", "higher"},
	{"pio.prefetch_misses", "count", "lower"},
	{"fault.injections", "count", "lower"},

	// Host cost per call of each modelled layer driven alone.
	{"disk.access_ns", "ns", "lower"},
	{"ionode.access_ns", "ns", "lower"},
	{"ionode.access_wb_ns", "ns", "lower"},
	{"pfs.transfer_1io_ns", "ns", "lower"},
	{"pfs.transfer_nio_ns", "ns", "lower"},
	{"pio.readat_ns.fortran", "ns", "lower"},
	{"pio.readat_ns.passion", "ns", "lower"},
	{"pio.twophase_ns", "ns", "lower"},
	{"mp.alltoallv_ns", "ns", "lower"},

	// apps: one cold run per application.
	{"apps.exec_ms.scf11", "ms", "lower"},
	{"apps.exec_ms.scf30", "ms", "lower"},
	{"apps.exec_ms.fft", "ms", "lower"},
	{"apps.exec_ms.btio", "ms", "lower"},
	{"apps.exec_ms.ast", "ms", "lower"},
	{"apps.exec_ms.trace", "ms", "lower"},

	// serve, sched on the hot path.
	{"serve.canon_ns", "ns", "lower"},
	{"serve.l1_get_ns", "ns", "lower"},
	{"serve.l1_frac", "ratio", "higher"},
	{"serve.l2_frac", "ratio", "lower"},
	{"serve.l1_p50_us", "us", "lower"},
	{"serve.l2_p50_us", "us", "lower"},
	{"serve.transport_us", "us", "lower"},

	// serve, sched on the cold path.
	{"serve.encode_us", "us", "lower"},
	{"serve.l1_put_ns", "ns", "lower"},
	{"serve.queue_ms", "ms", "lower"},
	{"serve.runs", "count", "higher"},
	{"sched.interactive_done", "count", "higher"},
	{"sched.batch_done", "count", "higher"},
	{"serve.rejected", "count", "lower"},

	// diskcache: the read beside the write.
	{"diskcache.get_us", "us", "lower"},
	{"diskcache.put_us", "us", "lower"},

	// cluster.
	{"cluster.owner_ns", "ns", "lower"},
	{"cluster.proxied_frac", "ratio", "lower"},
	{"cluster.proxy_hop_us", "us", "lower"},

	// roofline.
	{"roofline.estimate_us", "us", "lower"},
	{"roofline.estimate_frac", "ratio", "higher"},

	// trace codec.
	{"trace.decode_us", "us", "lower"},
	{"trace.hash_us", "us", "lower"},

	// The traced run's own end-to-end figures: their distance from the
	// untraced run's is the tracing overhead.
	{"bench.traced_p50_ms", "ms", "lower"},
	{"bench.traced_throughput_per_s", "1/s", "higher"},
}

func layerUnit(name string) string {
	for _, l := range perLayer {
		if l.name == name {
			return l.unit
		}
	}
	panic("perfbench: unlisted per-layer metric " + name) // a bug in this file's callers
}
