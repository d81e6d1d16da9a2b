package network_test

import (
	"testing"

	"pario/internal/machine"
	"pario/internal/network"
	"pario/internal/sim"
)

// newFor returns a constructor of the interconnect of a machine
// configuration.
func newFor(t *testing.T, config func(nio int) (*machine.Config, error), nio int) func() *network.Network {
	t.Helper()
	cfg, err := config(nio)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := cfg.Topology()
	if err != nil {
		t.Fatal(err)
	}
	return func() *network.Network {
		n, err := network.New(sim.NewEngine(), topo, cfg.Net)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
}

// NICs are built on first use, so building the interconnect of a
// 580-node mesh costs no more allocations than that of a 63-node one.
func TestNewCostIndependentOfMeshSize(t *testing.T) {
	small := newFor(t, machine.ParagonSmall, 4)
	large := newFor(t, machine.ParagonLarge, 64)
	if n := large().Topology().NumNodes(); n < 500 {
		t.Fatalf("large mesh has %d nodes, want > 500", n)
	}
	s := testing.AllocsPerRun(20, func() { small() })
	l := testing.AllocsPerRun(20, func() { large() })
	if l > s+2 {
		t.Fatalf("New allocates %g objects on the large mesh, %g on the small one", l, s)
	}
}

// NIC builds a node's interface once and returns the same resource on
// every later call.
func TestNICStableIdentity(t *testing.T) {
	n := newFor(t, machine.ParagonLarge, 16)()
	for _, node := range []int{0, 17, n.Topology().NumNodes() - 1} {
		first := n.NIC(node)
		if first == nil {
			t.Fatalf("NIC(%d) = nil", node)
		}
		for i := 0; i < 3; i++ {
			if got := n.NIC(node); got != first {
				t.Fatalf("NIC(%d) returned a different resource on call %d", node, i+2)
			}
		}
	}
	if n.NIC(1) == n.NIC(2) {
		t.Fatal("two nodes share one NIC")
	}
}
