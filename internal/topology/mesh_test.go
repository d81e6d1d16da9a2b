package topology

import (
	"testing"
	"testing/quick"
)

func mustMesh(t *testing.T, rows, cols, nc, nio, ns int) *Topology {
	t.Helper()
	tp, err := NewMesh2D(rows, cols, nc, nio, ns)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func TestMeshCounts(t *testing.T) {
	tp := mustMesh(t, 14, 4, 52, 3, 1)
	if tp.NumCompute() != 52 || tp.NumIO() != 3 || tp.NumService() != 1 {
		t.Fatalf("counts = %d/%d/%d", tp.NumCompute(), tp.NumIO(), tp.NumService())
	}
	if tp.NumNodes() != 56 {
		t.Fatalf("NumNodes = %d, want 56", tp.NumNodes())
	}
}

func TestMeshOverflowRejected(t *testing.T) {
	if _, err := NewMesh2D(2, 2, 4, 1, 0); err == nil {
		t.Fatal("oversubscribed mesh accepted")
	}
}

func TestMeshNeedsComputeAndIO(t *testing.T) {
	if _, err := NewMesh2D(4, 4, 0, 1, 0); err == nil {
		t.Fatal("zero compute nodes accepted")
	}
	if _, err := NewMesh2D(4, 4, 4, 0, 0); err == nil {
		t.Fatal("zero I/O nodes accepted")
	}
}

// Compute nodes come first, then I/O nodes, then service nodes.
func TestPartitionLayout(t *testing.T) {
	tp := mustMesh(t, 4, 4, 8, 4, 2)
	for i := 0; i < 8; i++ {
		if got := tp.ComputeNode(i); got != i {
			t.Fatalf("compute node %d at global %d, want %d", i, got, i)
		}
	}
	for i := 0; i < 4; i++ {
		if got := tp.IONode(i); got != 8+i {
			t.Fatalf("io node %d at global %d, want %d", i, got, 8+i)
		}
	}
	if got := tp.NumNodes() - tp.NumCompute() - tp.NumIO(); got != tp.NumService() {
		t.Fatalf("%d nodes left for service, want %d", got, tp.NumService())
	}
}

func TestHopsSelfIsZero(t *testing.T) {
	tp := mustMesh(t, 4, 4, 8, 4, 2)
	for n := 0; n < tp.NumNodes(); n++ {
		if tp.Hops(n, n) != 0 {
			t.Fatalf("Hops(%d,%d) != 0", n, n)
		}
	}
}

func TestHopsManhattan(t *testing.T) {
	tp := mustMesh(t, 4, 4, 12, 3, 1)
	// node 0 is (0,0); node 15 is (3,3)
	if got := tp.Hops(0, 15); got != 6 {
		t.Fatalf("Hops(0,15) = %d, want 6", got)
	}
	if got := tp.Hops(0, 3); got != 3 {
		t.Fatalf("Hops(0,3) = %d, want 3", got)
	}
	if got := tp.Hops(0, 4); got != 1 {
		t.Fatalf("Hops(0,4) = %d, want 1", got)
	}
}

func TestHopsSymmetryProperty(t *testing.T) {
	tp := mustMesh(t, 8, 8, 48, 12, 4)
	f := func(a, b uint8) bool {
		x := int(a) % tp.NumNodes()
		y := int(b) % tp.NumNodes()
		return tp.Hops(x, y) == tp.Hops(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHopsTriangleInequalityProperty(t *testing.T) {
	tp := mustMesh(t, 8, 8, 48, 12, 4)
	f := func(a, b, c uint8) bool {
		x := int(a) % tp.NumNodes()
		y := int(b) % tp.NumNodes()
		z := int(c) % tp.NumNodes()
		return tp.Hops(x, z) <= tp.Hops(x, y)+tp.Hops(y, z)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHopsBoundedByDiameterProperty(t *testing.T) {
	tp := mustMesh(t, 8, 8, 48, 12, 4)
	f := func(a, b uint8) bool {
		x := int(a) % tp.NumNodes()
		y := int(b) % tp.NumNodes()
		return tp.Hops(x, y) <= 7+7 // the 8x8 mesh's diameter
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSwitchedConstantHops(t *testing.T) {
	tp, err := NewSwitched(64, 4, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tp.Hops(0, 1) != 3 || tp.Hops(0, 68) != 3 {
		t.Fatal("switched fabric hops not constant")
	}
	if tp.Hops(5, 5) != 0 {
		t.Fatal("switched self-hops not zero")
	}
}

func TestCoordRowMajor(t *testing.T) {
	tp := mustMesh(t, 3, 5, 10, 4, 1)
	r, c := tp.Coord(7)
	if r != 1 || c != 2 {
		t.Fatalf("Coord(7) = (%d,%d), want (1,2)", r, c)
	}
}
