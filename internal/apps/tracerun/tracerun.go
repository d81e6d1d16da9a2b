// Package tracerun replays a captured or generated I/O trace through the
// simulated stack — the app that makes the scenario space unbounded: any
// workload anyone can log (see internal/trace's format) becomes a
// benchmarkable citizen, run under any machine, any client interface, and
// every optimization combo the paper studies (interface choice via
// -iface, prefetch overlap via Opt, write-behind via the machine's I/O
// node cache).
package tracerun

import (
	"fmt"

	"pario/internal/core"
	"pario/internal/pio"
	"pario/internal/sim"
	"pario/internal/trace"
)

// Config describes one trace replay; the machine is the run's core.Spec.
type Config struct {
	// Trace is the event log to replay; its rank count is the run's
	// process count (Spec.Procs = len(Trace.Ranks)).
	Trace *trace.Trace
	// Interface selects the client cost model ("fortran", "passion",
	// "native", "unix"); empty uses the trace's own hint, falling back to
	// "native".
	Interface string
	// Opt enables the optimized replay: each read is issued
	// asynchronously before the compute gap that precedes it, so the
	// fetch overlaps the compute (the paper's prefetch convention:
	// charged time is wait + copy). Writes rely on the machine's
	// write-behind cache either way.
	Opt bool
}

func (c *Config) defaults(procs int) error {
	if c.Trace == nil {
		return fmt.Errorf("tracerun: incomplete config: no trace")
	}
	if err := c.Trace.Validate(); err != nil {
		return err
	}
	if c.Interface == "" {
		c.Interface = c.Trace.Iface
	}
	if c.Interface == "" {
		c.Interface = "native"
	}
	if ranks := len(c.Trace.Ranks); ranks != procs {
		return fmt.Errorf("tracerun: trace has %d ranks but the run has %d procs", ranks, procs)
	}
	return nil
}

// Setup creates the replay's file on sys and returns its rank body; run it
// with core.Run. All ranks share one file sized to the trace's extent —
// offsets in the trace are file offsets, so overlapping ranks contend
// exactly as the original application did.
func (cfg Config) Setup(sys *core.System) (core.Body, error) {
	if err := cfg.defaults(sys.Procs); err != nil {
		return nil, err
	}
	extent := cfg.Trace.MaxExtent()
	file, err := sys.FS.Create("trace.dat", sys.DefaultLayout(), extent)
	if err != nil {
		return nil, err
	}
	iface := sys.Cfg.Interface(cfg.Interface)
	return func(p *sim.Proc, rank int) {
		h := sys.Client(rank, iface).Open(p, file)
		for _, ev := range cfg.Trace.Ranks[rank] {
			var ar *pio.AsyncRead
			if cfg.Opt && !ev.Write && ev.GapSec > 0 {
				// Optimized: start the fetch, compute through the gap,
				// then pay only wait + copy.
				ar = h.ReadAsync(ev.Off, ev.Bytes)
			}
			if ev.GapSec > 0 {
				p.Delay(ev.GapSec)
			}
			switch {
			case ev.Write:
				h.WriteAt(p, ev.Off, ev.Bytes)
			case ar != nil:
				h.Await(p, ar)
			default:
				h.ReadAt(p, ev.Off, ev.Bytes)
			}
		}
		h.Close(p)
	}, nil
}
