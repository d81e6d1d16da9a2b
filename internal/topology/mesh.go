// Package topology models the physical node arrangement of a
// distributed-memory machine: a 2-D mesh (Intel Paragon) or a switched
// cluster treated as a 1-hop fabric (IBM SP-2). It assigns node indices to
// partitions (compute, I/O, service) and answers hop-distance queries used
// by the network model.
package topology

import "fmt"

// Kind selects the fabric model.
type Kind int

const (
	// Mesh2D routes messages X-then-Y across a 2-D mesh; the hop count is
	// the Manhattan distance between node coordinates.
	Mesh2D Kind = iota
	// Switched models a multistage switch (SP-2 style): every pair of
	// distinct nodes is a constant number of hops apart.
	Switched
)

// Topology describes a machine's node layout. Node indices are global:
// compute nodes first, then I/O nodes, then service nodes.
type Topology struct {
	kind     Kind
	rows     int
	cols     int
	nCompute int
	nIO      int
	nService int
	// switchedHops is the constant hop count for Switched fabrics.
	switchedHops int
}

// NewMesh2D builds a 2-D mesh with the given logical dimensions holding
// nCompute compute nodes, nIO I/O nodes and nService service nodes. The
// total node count must fit in rows*cols.
func NewMesh2D(rows, cols, nCompute, nIO, nService int) (*Topology, error) {
	total := nCompute + nIO + nService
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("topology: non-positive mesh %dx%d", rows, cols)
	}
	if total > rows*cols {
		return nil, fmt.Errorf("topology: %d nodes exceed %dx%d mesh", total, rows, cols)
	}
	if nCompute <= 0 || nIO <= 0 {
		return nil, fmt.Errorf("topology: need at least one compute and one I/O node")
	}
	return &Topology{
		kind: Mesh2D, rows: rows, cols: cols,
		nCompute: nCompute, nIO: nIO, nService: nService,
	}, nil
}

// NewSwitched builds a switch-attached cluster where any two distinct nodes
// are hops apart.
func NewSwitched(nCompute, nIO, nService, hops int) (*Topology, error) {
	if nCompute <= 0 || nIO <= 0 {
		return nil, fmt.Errorf("topology: need at least one compute and one I/O node")
	}
	if hops < 1 {
		return nil, fmt.Errorf("topology: switched fabric needs >= 1 hop")
	}
	return &Topology{
		kind:     Switched,
		nCompute: nCompute, nIO: nIO, nService: nService,
		switchedHops: hops,
	}, nil
}

// Kind returns the fabric kind.
func (t *Topology) Kind() Kind { return t.kind }

// NumCompute returns the compute-node count.
func (t *Topology) NumCompute() int { return t.nCompute }

// NumIO returns the I/O-node count.
func (t *Topology) NumIO() int { return t.nIO }

// NumService returns the service-node count.
func (t *Topology) NumService() int { return t.nService }

// NumNodes returns the total node count.
func (t *Topology) NumNodes() int { return t.nCompute + t.nIO + t.nService }

// ComputeNode returns the global index of the i'th compute node.
func (t *Topology) ComputeNode(i int) int {
	if i < 0 || i >= t.nCompute {
		panic(fmt.Sprintf("topology: compute index %d out of range [0,%d)", i, t.nCompute))
	}
	return i
}

// IONode returns the global index of the i'th I/O node.
func (t *Topology) IONode(i int) int {
	if i < 0 || i >= t.nIO {
		panic(fmt.Sprintf("topology: io index %d out of range [0,%d)", i, t.nIO))
	}
	return t.nCompute + i
}

// Coord returns the (row, col) mesh coordinate of global node n. Nodes are
// laid out row-major. For Switched fabrics the coordinate is synthetic.
func (t *Topology) Coord(n int) (row, col int) {
	if n < 0 || n >= t.NumNodes() {
		panic(fmt.Sprintf("topology: node %d out of range [0,%d)", n, t.NumNodes()))
	}
	if t.kind == Switched {
		return 0, n
	}
	return n / t.cols, n % t.cols
}

// Hops returns the routing distance between global nodes a and b: Manhattan
// distance on a mesh, the constant switch depth otherwise, and zero for a
// node talking to itself.
func (t *Topology) Hops(a, b int) int {
	if a == b {
		return 0
	}
	if t.kind == Switched {
		return t.switchedHops
	}
	ar, ac := t.Coord(a)
	br, bc := t.Coord(b)
	dr, dc := ar-br, ac-bc
	if dr < 0 {
		dr = -dr
	}
	if dc < 0 {
		dc = -dc
	}
	return dr + dc
}
