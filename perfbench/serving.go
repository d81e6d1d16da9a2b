package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"net/http"
	"time"

	"pario/internal/diskcache"
	"pario/internal/serve"
)

// node is one in-process pariod: a serve.Server on a loopback port with
// its own diskcache L2.
type node struct {
	srv *serve.Server
	l2  *diskcache.Cache
	url string
}

func startNode(dir string, opts serve.Options) (*node, error) {
	l2, err := diskcache.Open(dir, 0)
	if err != nil {
		return nil, err
	}
	opts.L2 = l2
	srv := serve.New(opts)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		l2.Close()
		return nil, err
	}
	return &node{srv: srv, l2: l2, url: "http://" + addr.String()}, nil
}

// stop drains the server, which waits for in-flight requests and retires
// its workers, then detaches the L2.
func (n *node) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = n.srv.Shutdown(ctx) // a drain that times out leaves nothing to clean up here
	n.l2.Close()
}

// newClient returns an HTTP client holding at most conns connections to
// any one server.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}}
}

func closeClient(c *http.Client) { c.Transport.(*http.Transport).CloseIdleConnections() }

// fetch GETs url, reading the whole body into buf (reused across calls so
// the client allocates nothing per request).
func fetch(c *http.Client, url string, buf *bytes.Buffer) (*http.Response, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, fmt.Errorf("reading %s: %w", url, err)
	}
	return resp, nil
}

func fnv64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// Latency classes of a serving answer, from the client's side.
const (
	classL1       = "l1"       // X-Pario-Cache: hit on the node asked
	classL2       = "l2"       // X-Pario-Cache: l2 on the node asked
	classProxied  = "proxied"  // another node owns the key and answered
	classEstimate = "estimate" // mode=estimate
	classMiss     = "miss"     // simulated for this request
	classOther    = "other"
)

// classify names the path an answer took. Proxied answers carry the
// owner's X-Pario-Cache, so they are told apart by X-Pario-Owner: a key
// owned elsewhere takes the hop on its first request (firstTouch) and is
// banked locally after that.
func classify(estimate bool, cacheHdr, ownerHdr, self string, firstTouch bool) string {
	switch {
	case estimate:
		return classEstimate
	case ownerHdr != "" && ownerHdr != self && firstTouch:
		return classProxied
	case cacheHdr == "hit":
		return classL1
	case cacheHdr == "l2":
		return classL2
	case cacheHdr == "miss":
		return classMiss
	default:
		return classOther
	}
}
