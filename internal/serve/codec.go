package serve

import (
	"encoding/json"

	"pario/internal/core"
	"pario/internal/request"
	"pario/internal/stats"
	"pario/internal/trace"
)

// Result is the deterministic response body for one run: the canonical
// request followed by the report. Byte determinism is the serving layer's
// soundness contract — a cached body and a freshly simulated one must be
// identical — so the encoding includes only simulated quantities: the
// report's one wall-clock field (the metrics snapshot's wall_sec) is
// quarantined to zero here and travels out of band (the daemon's
// X-Pario-Wall-Sec header).
type Result struct {
	Request request.Request `json:"request"`
	Report  Report          `json:"report"`
}

// Report is the JSON projection of core.Report.
type Report struct {
	Machine string `json:"machine"`
	Procs   int    `json:"procs"`
	IONodes int    `json:"ionodes"`

	ExecSec       float64 `json:"exec_sec"`
	IOMaxSec      float64 `json:"io_max_sec"`
	IOAggSec      float64 `json:"io_agg_sec"`
	IOPctOfExec   float64 `json:"io_pct_of_exec"`
	BandwidthMBs  float64 `json:"bandwidth_mbs"`
	IOImbalance   float64 `json:"io_imbalance"`
	MaxIONodeUtil float64 `json:"max_ionode_util"`

	BytesRead    int64  `json:"bytes_read"`
	BytesWritten int64  `json:"bytes_written"`
	Events       uint64 `json:"events"`

	PerRankIOSec  []float64 `json:"per_rank_io_sec"`
	IONodeBusySec []float64 `json:"ionode_busy_sec"`

	// Ops is the aggregated per-operation trace (the paper's table rows),
	// in fixed operation order.
	Ops []OpStats `json:"ops"`

	// Stats is the cross-layer metrics snapshot with wall_sec zeroed (see
	// Result).
	Stats *stats.Snapshot `json:"stats,omitempty"`
}

// OpStats is one operation class of the aggregated trace.
type OpStats struct {
	Op      string  `json:"op"`
	Count   int64   `json:"count"`
	Sec     float64 `json:"sec"`
	Bytes   int64   `json:"bytes"`
	MeanSec float64 `json:"mean_sec"`
}

// NewReport projects a core.Report into its codec form.
func NewReport(rep core.Report) Report {
	out := Report{
		Machine:       rep.Machine,
		Procs:         rep.Procs,
		IONodes:       rep.IONodes,
		ExecSec:       rep.ExecSec,
		IOMaxSec:      rep.IOMaxSec,
		IOAggSec:      rep.IOAggSec,
		IOPctOfExec:   rep.IOPctOfExec(),
		BandwidthMBs:  rep.BandwidthMBs(),
		IOImbalance:   rep.IOImbalance(),
		MaxIONodeUtil: rep.MaxIONodeUtil(),
		BytesRead:     rep.BytesRead,
		BytesWritten:  rep.BytesWritten,
		Events:        rep.Events,
		PerRankIOSec:  rep.PerRankIOSec,
		IONodeBusySec: rep.IONodeBusySec,
	}
	if rep.Trace != nil {
		for _, op := range trace.Ops {
			s := rep.Trace.Get(op)
			if s.Count == 0 {
				continue
			}
			out.Ops = append(out.Ops, OpStats{
				Op: op.String(), Count: s.Count, Sec: s.Sec, Bytes: s.Bytes, MeanSec: s.MeanSec(),
			})
		}
	}
	if rep.Stats != nil {
		snap := *rep.Stats
		snap.WallSec = 0 // quarantine the non-deterministic field
		out.Stats = &snap
	}
	return out
}

// Encode renders the shared response body: indented JSON plus a trailing
// newline. req must be canonical; rep the run it produced.
func Encode(req request.Request, rep core.Report) ([]byte, error) {
	b, err := json.MarshalIndent(Result{Request: req, Report: NewReport(rep)}, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
