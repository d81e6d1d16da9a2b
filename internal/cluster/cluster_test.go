package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

var peers3 = []string{"http://10.0.0.1:7471", "http://10.0.0.2:7471", "http://10.0.0.3:7471"}

// keyN fabricates a content address the way serve does: hex SHA-256.
func keyN(i int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("key-%d", i)))
	return hex.EncodeToString(sum[:])
}

func TestOwnerDeterministicAcrossNodes(t *testing.T) {
	rings := make([]*Ring, len(peers3))
	for i := range peers3 {
		r, err := New(peers3, i)
		if err != nil {
			t.Fatal(err)
		}
		rings[i] = r
	}
	for i := 0; i < 200; i++ {
		k := keyN(i)
		want := rings[0].Owner(k)
		for n := 1; n < len(rings); n++ {
			if got := rings[n].Owner(k); got != want {
				t.Fatalf("key %d: node %d says owner %v, node 0 says %v", i, n, got, want)
			}
		}
		// Exactly one node claims ownership.
		owners := 0
		for _, r := range rings {
			if r.IsOwner(k) {
				owners++
			}
		}
		if owners != 1 {
			t.Fatalf("key %d claimed by %d nodes", i, owners)
		}
	}
}

// TestOwnerPermutationInvariant: rendezvous ownership depends on the peer
// set, not the order the operator happened to list it in.
func TestOwnerPermutationInvariant(t *testing.T) {
	a, err := New(peers3, 0)
	if err != nil {
		t.Fatal(err)
	}
	permuted := []string{peers3[2], peers3[0], peers3[1]}
	b, err := New(permuted, 1) // same self URL, different list order
	if err != nil {
		t.Fatal(err)
	}
	if a.Self() != b.Self() {
		t.Fatalf("self = %v vs %v", a.Self(), b.Self())
	}
	for i := 0; i < 100; i++ {
		k := keyN(i)
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("key %d: owner differs under peer-list permutation", i)
		}
	}
}

// TestOwnershipRoughlyBalanced: HRW over SHA-256 should spread the key
// space near-uniformly; allow a generous band around the 1/3 share.
func TestOwnershipRoughlyBalanced(t *testing.T) {
	r, err := New(peers3, 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 3000
	counts := make(map[int]int)
	for i := 0; i < n; i++ {
		counts[r.Owner(keyN(i)).ID]++
	}
	for id, c := range counts {
		if c < n/3-n/10 || c > n/3+n/10 {
			t.Fatalf("node %d owns %d of %d keys — not remotely 1/3", id, c, n)
		}
	}
	if len(counts) != 3 {
		t.Fatalf("only %d nodes own any keys", len(counts))
	}
}

// TestPeerRemovalOnlyMovesLostShare: dropping one peer reassigns only the
// keys that peer owned — the HRW stability property that makes restarts
// and scale-downs cheap.
func TestPeerRemovalOnlyMovesLostShare(t *testing.T) {
	full, err := New(peers3, 0)
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := New(peers3[:2], 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		k := keyN(i)
		before := full.Owner(k)
		after := reduced.Owner(k)
		if before.URL != peers3[2] && after.URL != before.URL {
			t.Fatalf("key %d moved from surviving owner %s to %s", i, before.URL, after.URL)
		}
	}
}

func TestNormalizePeer(t *testing.T) {
	cases := map[string]string{
		"127.0.0.1:7471": "http://127.0.0.1:7471",
		"http://a:1":     "http://a:1",
		"https://b:2/":   "https://b:2",
		" http://c:3 ":   "http://c:3",
	}
	for in, want := range cases {
		got, err := NormalizePeer(in)
		if err != nil || got != want {
			t.Errorf("NormalizePeer(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "ftp://x:1", "http://", "http://a:1/path"} {
		if got, err := NormalizePeer(bad); err == nil {
			t.Errorf("NormalizePeer(%q) = %q, want error", bad, got)
		}
	}
}

func TestParsePeers(t *testing.T) {
	got, err := ParsePeers("127.0.0.1:1, http://127.0.0.1:2 ,https://h:3")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"http://127.0.0.1:1", "http://127.0.0.1:2", "https://h:3"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("peer %d = %q, want %q", i, got[i], want[i])
		}
	}
	if _, err := ParsePeers("a:1,a:1"); err == nil {
		t.Fatal("duplicate peers accepted")
	}
	if _, err := ParsePeers("a:1,,b:2"); err == nil {
		t.Fatal("empty peer accepted")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New([]string{"http://only:1"}, 0); err == nil {
		t.Fatal("single-peer cluster accepted")
	}
	if _, err := New(peers3, 3); err == nil {
		t.Fatal("out-of-range node id accepted")
	}
	if _, err := New(peers3, -1); err == nil {
		t.Fatal("negative node id accepted")
	}
	if _, err := New([]string{"http://a:1", "http://a:1"}, 0); err == nil {
		t.Fatal("duplicate peers accepted")
	}
	r, err := New([]string{"http://b:2", "http://a:1"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// IDs follow canonical (sorted) order; self was "http://b:2".
	if r.Self().URL != "http://b:2" || r.Self().ID != 1 {
		t.Fatalf("self = %+v, want ID 1 at http://b:2", r.Self())
	}
	if a, err := New([]string{"http://b:2", "http://a:1"}, 1); err != nil || a.Self().ID != 0 {
		t.Fatalf("canonical order broken: self = %+v, %v; want ID 0 at http://a:1", a.Self(), err)
	}
}
