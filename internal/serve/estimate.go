package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"pario/internal/core"
	"pario/internal/request"
	"pario/internal/roofline"
)

// Estimate mode: /run?mode=estimate answers the analytic roofline
// prediction instead of simulating. The estimate path never touches the
// scheduler, the singleflight group or the run counters — an estimate is a
// closed-form evaluation measured in microseconds, so it is computed
// inline on the request goroutine. Results are cached under a mode-marked
// content address, disjoint from the exact keys, so each mode's bodies
// stay byte-identical and neither mode can alias the other.

// estimateKey is the estimate-mode content address: the hex SHA-256 of the
// canonical JSON prefixed with a mode marker. The exact Key() hashes the
// bare JSON (which always starts with '{'), so the two key spaces cannot
// collide and a cache entry answers exactly one mode.
func estimateKey(r request.Request) string {
	b, err := json.Marshal(r)
	if err != nil {
		// Request is a plain struct of scalars; Marshal cannot fail.
		panic(err)
	}
	h := sha256.New()
	h.Write([]byte("estimate\x00"))
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}

// EstimateResult is the deterministic estimate-mode response body: the
// canonical request followed by the prediction.
type EstimateResult struct {
	Request  request.Request    `json:"request"`
	Estimate *roofline.Estimate `json:"estimate"`
}

// EncodeEstimate renders the estimate response body: indented JSON plus a
// trailing newline, mirroring Encode's determinism contract.
func EncodeEstimate(req request.Request, est *roofline.Estimate) ([]byte, error) {
	b, err := json.MarshalIndent(EstimateResult{Request: req, Estimate: est}, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// parseMode validates a ?mode= value; empty and "exact" select the
// simulation path, "estimate" the analytic one.
func parseMode(v string) (estimate bool, err error) {
	switch v {
	case "", "exact":
		return false, nil
	case "estimate":
		return true, nil
	default:
		return false, fmt.Errorf("parameter mode: %q (exact|estimate)", v)
	}
}

// estimateBody serves one estimate: cache first, then the closed form,
// filling the cache so repeated estimates are byte-identical.
func (s *Server) estimateBody(canon request.Request) (body []byte, source, key string, err error) {
	key = estimateKey(canon)
	if body, ok := s.cache.Get(key); ok {
		return body, "hit", key, nil
	}
	est, err := request.Estimate(canon)
	if err != nil {
		return nil, "", key, err
	}
	body, err = EncodeEstimate(canon, est)
	if err != nil {
		return nil, "", key, err
	}
	s.cache.Put(key, body)
	return body, "miss", key, nil
}

// handleEstimate is /run's estimate-mode branch: inline, scheduler-free,
// counted by its own request and latency metrics.
func (s *Server) handleEstimate(w http.ResponseWriter, canon request.Request) {
	start := time.Now()
	s.estimates.Add(1)
	body, source, key, err := s.estimateBody(canon)
	s.estimateLatNs.Add(time.Since(start).Nanoseconds())
	if err != nil {
		s.estimateFailed.Add(1)
		class := core.ErrorClass(err)
		s.countErrClass(class)
		status := http.StatusInternalServerError
		if class == "estimate_unsupported" {
			status = http.StatusUnprocessableEntity
		}
		writeErrJSON(w, status, class, err)
		return
	}
	if source == "hit" {
		s.estimateHits.Add(1)
	}
	s.respond(w, key, source, body)
}
