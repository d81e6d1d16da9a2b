// Package cluster shards the pariod content-address space across a static
// peer list with rendezvous (highest-random-weight) hashing: for a given
// key, every node independently scores all peers and agrees on the single
// highest scorer as the key's owner. The owner runs the simulation;
// everyone else proxies to it, so the serving layer's singleflight becomes
// cluster-wide by construction — exactly one node ever simulates a given
// key.
//
// Rendezvous hashing was chosen over a ring of virtual nodes because the
// peer lists here are small (a handful of processes) and static per
// deployment: HRW needs no precomputed ring state, is trivially
// order-insensitive (nodes may list peers in any order and still agree on
// owners, as long as the sets match), and loses only 1/N of the key space
// when a peer is added or removed.
package cluster

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"net/url"
	"strings"
)

// Node is one cluster member: its index in the canonical (sorted) peer
// list and its base URL (scheme://host:port, no trailing slash).
type Node struct {
	ID  int
	URL string
}

// Ring is the immutable ownership map for one peer set. Methods are safe
// for concurrent use (the struct is read-only after New).
type Ring struct {
	nodes []Node // sorted by URL: the canonical order IDs refer to
	self  int    // index into nodes
}

// NormalizePeer canonicalizes one peer spec: a bare host:port gains the
// http scheme, trailing slashes are dropped, and the result must parse as
// an absolute http(s) URL with a host.
func NormalizePeer(p string) (string, error) {
	p = strings.TrimSpace(p)
	if p == "" {
		return "", fmt.Errorf("cluster: empty peer")
	}
	if !strings.Contains(p, "://") {
		p = "http://" + p
	}
	u, err := url.Parse(p)
	if err != nil {
		return "", fmt.Errorf("cluster: peer %q: %w", p, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return "", fmt.Errorf("cluster: peer %q: want http(s)://host:port", p)
	}
	if u.Path != "" && u.Path != "/" {
		return "", fmt.Errorf("cluster: peer %q: no path allowed", p)
	}
	return u.Scheme + "://" + u.Host, nil
}

// ParsePeers splits and normalizes a comma-separated peer list, rejecting
// duplicates. Order is preserved (New canonicalizes it).
func ParsePeers(s string) ([]string, error) {
	var peers []string
	seen := make(map[string]bool)
	for _, p := range strings.Split(s, ",") {
		n, err := NormalizePeer(p)
		if err != nil {
			return nil, err
		}
		if seen[n] {
			return nil, fmt.Errorf("cluster: duplicate peer %s", n)
		}
		seen[n] = true
		peers = append(peers, n)
	}
	return peers, nil
}

// New builds the ownership ring for peers, identifying this node by its
// position in the list as given (before canonical sorting), so operators
// can launch every node with the identical -peers string and vary only
// -node-id. At least two peers are required — a one-node "cluster" is just
// a pariod.
func New(peers []string, selfIdx int) (*Ring, error) {
	if len(peers) < 2 {
		return nil, fmt.Errorf("cluster: need at least 2 peers, have %d", len(peers))
	}
	if selfIdx < 0 || selfIdx >= len(peers) {
		return nil, fmt.Errorf("cluster: node id %d out of range [0,%d)", selfIdx, len(peers))
	}
	norm := make([]string, len(peers))
	seen := make(map[string]bool)
	for i, p := range peers {
		n, err := NormalizePeer(p)
		if err != nil {
			return nil, err
		}
		if seen[n] {
			return nil, fmt.Errorf("cluster: duplicate peer %s", n)
		}
		seen[n] = true
		norm[i] = n
	}
	selfURL := norm[selfIdx]
	// Canonical order is sorted-by-URL, so two nodes handed permuted peer
	// lists still assign identical IDs (and owners — HRW is set-determined
	// anyway, but stable IDs keep logs and metrics comparable).
	sorted := append([]string(nil), norm...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	r := &Ring{self: -1}
	for i, u := range sorted {
		r.nodes = append(r.nodes, Node{ID: i, URL: u})
		if u == selfURL {
			r.self = i
		}
	}
	return r, nil
}

// Self returns this node.
func (r *Ring) Self() Node { return r.nodes[r.self] }

// Len returns the cluster size.
func (r *Ring) Len() int { return len(r.nodes) }

// Owner returns the node that owns key: the rendezvous winner, i.e. the
// peer whose score(peerURL, key) is highest. Every node computes the same
// winner for the same peer set, with no coordination.
func (r *Ring) Owner(key string) Node {
	best := 0
	var bestScore [sha256.Size]byte
	for i, n := range r.nodes {
		s := score(n.URL, key)
		if i == 0 || bytes.Compare(s[:], bestScore[:]) > 0 {
			best, bestScore = i, s
		}
	}
	return r.nodes[best]
}

// IsOwner reports whether this node owns key.
func (r *Ring) IsOwner(key string) bool { return r.Owner(key).ID == r.self }

// score is the HRW weight: SHA-256 over the peer URL and the key with a
// NUL separator (URLs cannot contain NUL, so (url,key) pairs cannot
// collide by concatenation). SHA-256 keeps the weight space identical to
// the content-address space — uniform and cheap to reason about.
func score(peerURL, key string) [sha256.Size]byte {
	h := sha256.New()
	h.Write([]byte(peerURL))
	h.Write([]byte{0})
	h.Write([]byte(key))
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}
