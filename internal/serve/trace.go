package serve

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"pario/internal/core"
	"pario/internal/request"
)

// Trace serving: pariod accepts I/O traces by upload (POST /trace, or
// inline trace_data on a run request), registers them by content hash,
// and serves app-"trace" replays exactly like any other app — the hash is
// canonicalized into the cache key, so cache, singleflight and cluster
// routing work unchanged, and a repeated replay never re-simulates.

// executeRun is the production run seam: resolve app-"trace" requests
// against the upload store, run everything else through request.Run.
func (s *Server) executeRun(ctx context.Context, req request.Request) (core.Report, error) {
	if req.App == "trace" {
		t, ok := s.traces.Get(req.Trace)
		if !ok {
			s.traceUnknown.Add(1)
			return core.Report{}, core.Classify("trace_unknown",
				fmt.Errorf("serve: trace %s has not been uploaded to this node", req.Trace))
		}
		return request.RunTrace(ctx, req, t)
	}
	return request.Run(ctx, req)
}

// traceUploadResult is the POST /trace response body.
type traceUploadResult struct {
	Trace  string `json:"trace"`
	Ranks  int    `json:"ranks"`
	Events int    `json:"events"`
	Bytes  int64  `json:"bytes"`
	Iface  string `json:"iface,omitempty"`
	Label  string `json:"label,omitempty"`
}

// handleTrace is the upload endpoint. POST stores the body (text or
// binary encoding) and answers the content hash to replay it by; GET
// ?trace=<hash> returns the stored trace's canonical text encoding.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	switch r.Method {
	case http.MethodPost:
		data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.opts.TraceMaxBytes))
		if err != nil {
			s.badRequest(w, r, fmt.Errorf("reading trace body: %v", err))
			return
		}
		hash, t, err := s.traces.AddData(data)
		if err != nil {
			s.badRequest(w, r, err)
			return
		}
		s.traceUploads.Add(1)
		b, err := json.Marshal(traceUploadResult{
			Trace: hash, Ranks: len(t.Ranks), Events: t.Events(), Bytes: t.Bytes(),
			Iface: t.Iface, Label: t.Label,
		})
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(append(b, '\n'))
	case http.MethodGet:
		hash := strings.ToLower(strings.TrimSpace(r.URL.Query().Get("trace")))
		if !request.IsTraceHash(hash) {
			s.badRequest(w, r, errors.New("parameter trace: want a 64-hex content hash"))
			return
		}
		t, ok := s.traces.Get(hash)
		if !ok {
			s.traceUnknown.Add(1)
			writeErrJSON(w, http.StatusNotFound, "trace_unknown",
				fmt.Errorf("serve: trace %s has not been uploaded to this node", hash))
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Header().Set("X-Pario-Key", hash)
		_, _ = w.Write(t.EncodeText())
	default:
		s.badRequest(w, r, fmt.Errorf("method %s not allowed", r.Method))
	}
}

// registerInlineTrace handles a run request's trace_data payload before
// canonicalization: decode the base64, register the trace exactly as
// POST /trace would, and resolve the request's hash. A mismatched
// explicit hash is refused — the caller named one trace and sent another.
func (s *Server) registerInlineTrace(req *request.Request) error {
	if !strings.EqualFold(strings.TrimSpace(req.App), "trace") || req.TraceData == "" {
		return nil
	}
	if int64(len(req.TraceData)) > s.opts.TraceMaxBytes {
		return fmt.Errorf("serve: trace_data of %d bytes exceeds the %d-byte upload bound",
			len(req.TraceData), s.opts.TraceMaxBytes)
	}
	data, err := base64.StdEncoding.DecodeString(req.TraceData)
	if err != nil {
		return fmt.Errorf("serve: trace_data is not base64: %v", err)
	}
	hash, _, err := s.traces.AddData(data)
	if err != nil {
		return err
	}
	s.traceUploads.Add(1)
	if req.Trace != "" && !strings.EqualFold(strings.TrimSpace(req.Trace), hash) {
		return fmt.Errorf("serve: trace_data hashes to %s, not the requested %s", hash, req.Trace)
	}
	req.Trace = hash
	req.TraceData = ""
	return nil
}
