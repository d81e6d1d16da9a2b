package serve

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"pario/internal/cluster"
	"pario/internal/core"
)

// Cluster mode: N pariod instances consistent-hash the content-address
// space among themselves (internal/cluster, rendezvous hashing). The owner
// of a key runs the simulation; every other node proxies /run to the owner
// and fans /sweep points out to their owners. Because exactly one node ever
// simulates a given key, the per-node singleflight becomes cluster-wide by
// construction, and the cluster-wide runs_total for a cold grid equals the
// number of unique keys in it.
//
// The proxy protocol is plain /run over HTTP with three extra headers:
//
//   - X-Pario-Forwarded-By names the proxying node and is the forwarding-
//     loop guard: a node that receives a forwarded request serves it
//     locally no matter what its own ring says, so disagreeing peer lists
//     degrade to extra local work, never to a forwarding cycle.
//   - X-Pario-Lane carries the admission class: proxied sweep points run
//     on the owner's batch lane (blocking admission, workers prefer
//     interactive), exactly as local sweep points do, so a remote sweep
//     cannot 429 or starve the owner's interactive traffic.
//   - X-Pario-Owner on every cluster-mode response names the key's owner,
//     so clients and smoke tests can observe the sharding.
//
// X-Pario-Cache, X-Pario-Key, Retry-After, the response status and the
// body are relayed verbatim — a proxied timeout returns the owner's
// structured 504, a proxied failure the owner's structured 500 — and the
// ?timeout_sec= the client asked for is propagated to the owner. An owner
// that is unreachable or draining (transport error, 502, 503) triggers a
// local fallback: determinism makes running the key anywhere sound, so
// availability wins and only the no-duplicate-work property is (counted
// and) temporarily relaxed.
const (
	forwardedByHeader = "X-Pario-Forwarded-By"
	laneHeader        = "X-Pario-Lane"
	ownerHeader       = "X-Pario-Owner"
)

// peerGrace pads the proxy client's deadline past the owner's own request
// timeout, so the owner's structured 504 wins the race against our
// transport cutting the connection.
const peerGrace = 5 * time.Second

// errPeerUnavailable marks owner-fetch failures that justify running the
// key locally instead: transport errors and 502/503 answers.
var errPeerUnavailable = errors.New("serve: peer unavailable")

// SetCluster installs (or replaces) the peer ring. Call before serving
// traffic, or from tests that learn their listen addresses late; nil
// reverts to single-node operation.
func (s *Server) SetCluster(ring *cluster.Ring) { s.ring.Store(ring) }

// fetchFromOwner posts canon to owner's /run with the loop-guard header,
// the effective timeout, and the admission lane. The caller owns the
// response. Transport failures and 502/503 answers come back wrapped in
// errPeerUnavailable.
func (s *Server) fetchFromOwner(ctx context.Context, owner cluster.Node, canon Request, timeout time.Duration, ln Lane) (*http.Response, error) {
	if canon.App == "trace" {
		// Forward the trace bytes alongside the hash: the owner may never
		// have seen this upload. TraceData is transport, not identity — the
		// owner registers it and canonicalizes back to the same key. If we
		// don't hold the trace either, forward hash-only and let the owner
		// answer from its own store (or 404).
		if t, ok := s.traces.Get(canon.Trace); ok {
			canon.TraceData = base64.StdEncoding.EncodeToString(t.EncodeBinary())
		}
	}
	b, err := json.Marshal(canon)
	if err != nil {
		return nil, err
	}
	url := owner.URL + "/run?timeout_sec=" + strconv.FormatFloat(timeout.Seconds(), 'f', -1, 64)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(forwardedByHeader, s.ring.Load().Self().URL)
	client := http.Client{Transport: s.peerTransport}
	if ln == LaneBatch {
		// A proxied sweep point may wait in the owner's batch queue for
		// longer than its run timeout — blocking admission is the sweep's
		// flow control — so only ctx (the sweep's own lifetime) bounds it.
		req.Header.Set(laneHeader, "batch")
	} else {
		client.Timeout = timeout + peerGrace
	}
	resp, err := client.Do(req)
	if err != nil {
		s.peerProxyErr.Add(1)
		return nil, fmt.Errorf("%w: %s: %v", errPeerUnavailable, owner.URL, err)
	}
	if resp.StatusCode == http.StatusBadGateway || resp.StatusCode == http.StatusServiceUnavailable {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		s.peerProxyErr.Add(1)
		return nil, fmt.Errorf("%w: %s answered %d", errPeerUnavailable, owner.URL, resp.StatusCode)
	}
	return resp, nil
}

// ownerError is an owner's non-200 answer that does not justify a local
// fallback: a timeout, a failure, a refusal. /run relays it verbatim — a
// proxied timeout returns the owner's 504, a proxied failure its
// structured 500 — and a sweep line reads it as the failure the local
// path would have produced: a 504 is canceled, a structured body carries
// its class, anything else is internal.
type ownerError struct {
	status int
	header http.Header
	body   []byte
	err    error // classified, for core.ErrorClass and the sweep line
}

func newOwnerError(owner string, resp *http.Response, raw []byte) *ownerError {
	msg := string(bytes.TrimSpace(raw))
	var eb errorBody
	structured := json.Unmarshal(raw, &eb) == nil && eb.Class != ""
	if structured {
		msg = eb.Error
	} else if resp.StatusCode != http.StatusGatewayTimeout {
		msg = fmt.Sprintf("status %d: %s", resp.StatusCode, msg)
	}
	err := fmt.Errorf("peer %s: %s", owner, msg)
	switch {
	case resp.StatusCode == http.StatusGatewayTimeout:
		err = core.Classify("canceled", err)
	case structured:
		err = core.Classify(eb.Class, err)
	}
	return &ownerError{status: resp.StatusCode, header: resp.Header, body: raw, err: err}
}

func (e *ownerError) Error() string { return e.err.Error() }
func (e *ownerError) Unwrap() error { return e.err }

// relay writes the owner's answer: status, contract headers and body bytes.
func (e *ownerError) relay(w http.ResponseWriter) {
	h := w.Header()
	for _, name := range []string{"Content-Type", "X-Pario-Cache", "X-Pario-Key", "Retry-After", ownerHeader} {
		if v := e.header.Get(name); v != "" {
			h.Set(name, v)
		}
	}
	h.Set("Content-Length", strconv.Itoa(len(e.body)))
	w.WriteHeader(e.status)
	_, _ = w.Write(e.body)
}

// fromOwner is point's owner step: fetch key from owner on lane ln. A 200
// banks the body in both cache tiers — determinism makes replication
// sound, so the next identical request here is a local hit — and returns
// the owner's X-Pario-Cache as the source. Any other answer comes back as
// an *ownerError; an unreachable owner or a body that dies mid-read as
// errPeerUnavailable.
func (s *Server) fromOwner(ctx context.Context, owner cluster.Node, req Request, key string, timeout time.Duration, ln Lane) ([]byte, string, error) {
	resp, err := s.fetchFromOwner(ctx, owner, req, timeout, ln)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		s.peerProxyErr.Add(1)
		return nil, "", fmt.Errorf("%w: %s: %v", errPeerUnavailable, owner.URL, err)
	}
	s.peerProxied.Add(1)
	if resp.StatusCode != http.StatusOK {
		return nil, "", newOwnerError(owner.URL, resp, raw)
	}
	s.cachePut(key, raw)
	return raw, resp.Header.Get("X-Pario-Cache"), nil
}
