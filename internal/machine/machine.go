// Package machine holds the calibrated configurations of the paper's two
// platforms: the Intel Paragon (small 56-node and large 512-node machines,
// PFS file system) and the IBM SP-2 (PIOFS). Every constant is either taken
// from the paper's §3 platform description or fitted to the paper's own
// per-operation measurements (Tables 2 and 3); the derivations are given in
// the comments and in DESIGN.md §4.
package machine

import (
	"fmt"
	"strconv"

	"pario/internal/disk"
	"pario/internal/ionode"
	"pario/internal/network"
	"pario/internal/pio"
	"pario/internal/topology"
)

// Config describes one machine.
type Config struct {
	Name string

	// Topology
	Kind       topology.Kind
	Rows, Cols int // mesh dimensions (Mesh2D only)
	SwitchHops int // constant hop count (Switched only)
	NumCompute int
	NumIO      int
	NumService int

	// Per-node characteristics
	CPUFlops    float64 // sustained floating-point rate per compute node
	MemoryBytes int64   // application-usable memory per compute node

	// Cost models
	Net  network.Params
	Node ionode.Params

	// File system defaults
	DefaultStripeUnit int64

	// I/O interfaces available on this machine
	Fortran pio.ClientParams
	Passion pio.ClientParams
	Unix    pio.ClientParams
	// Native is the file system's own call interface (PFS/PIOFS direct):
	// the cheapest client path, used by hand-written C/assembly I/O loops.
	Native pio.ClientParams
}

// Topology materializes the node layout.
func (c *Config) Topology() (*topology.Topology, error) {
	if c.Kind == topology.Switched {
		return topology.NewSwitched(c.NumCompute, c.NumIO, c.NumService, c.SwitchHops)
	}
	return topology.NewMesh2D(c.Rows, c.Cols, c.NumCompute, c.NumIO, c.NumService)
}

// Validate performs a coarse sanity check.
func (c *Config) Validate() error {
	if c.NumCompute < 1 || c.NumIO < 1 {
		return fmt.Errorf("machine %s: need compute and I/O nodes", c.Name)
	}
	if c.CPUFlops <= 0 || c.MemoryBytes <= 0 || c.DefaultStripeUnit <= 0 {
		return fmt.Errorf("machine %s: non-positive rates", c.Name)
	}
	if err := c.Net.Validate(); err != nil {
		return err
	}
	return c.Node.Validate()
}

// paragonDisk is the drive model behind one Paragon PFS I/O node.
// Streaming rate ~8 MB/s with millisecond request overheads and seeks of a
// few to ~18 ms, so the disk-resident part of a 64 KB access is ~12 ms —
// the non-software residue of the paper's Table 3 per-read time.
func paragonDisk() disk.Params {
	return disk.Params{
		RequestOverhead: 2.0e-3,
		SeekMin:         4.0e-3,
		SeekMax:         18.0e-3,
		FullStroke:      2 << 30,
		ByteTime:        1.25e-7, // ~8 MB/s streaming
	}
}

// paragonIONode adds the PFS server cost and a small write-behind cache,
// which is why measured writes are cheaper per byte than reads in the
// paper's Tables 2-3.
func paragonIONode() ionode.Params {
	return ionode.Params{
		ServerOverhead:    1.5e-3,
		NumDisks:          1,
		Disk:              paragonDisk(),
		CacheBytes:        8 << 20,
		CacheCopyByteTime: 2.0e-8, // 50 MB/s copy into server cache
	}
}

// paragonNet models the Paragon mesh: ~70 us end-to-end latency, ~90 MB/s
// sustained link bandwidth, sub-microsecond per-hop routing, ~50 MB/s local
// memcpy on the i860.
func paragonNet() network.Params {
	return network.Params{
		Latency:         70e-6,
		ByteTime:        1.1e-8,
		HopTime:         1e-7,
		MemCopyByteTime: 2.0e-8,
	}
}

// paragonFortran is the Fortran-I/O-on-PFS client. ReadCallSec is fitted
// from Table 2: 106.5 ms measured per 64 KB read minus ~16 ms of disk,
// server and wire time leaves ~90 ms of client software path. Writes
// (69 ms, cache-absorbed) leave ~65 ms. Seeks: 8.01 s / 994 calls = 8 ms.
// Opens: 1.97 s / 19 = ~100 ms.
func paragonFortran() pio.ClientParams {
	return pio.ClientParams{
		Name:          "fortran",
		OpenSec:       0.100,
		CloseSec:      0.030,
		FlushSec:      0.005,
		ReadCallSec:   0.089,
		WriteCallSec:  0.065,
		SeekSec:       0.008,
		ExplicitSeeks: false,
	}
}

// paragonPassion is the PASSION runtime client. Fitted from Table 3:
// 59.7 ms per 64 KB read minus the same ~16 ms residue leaves ~43 ms;
// writes 34 ms leave ~30 ms. Seeks: 256.56 s / 604,342 = 0.42 ms, one per
// data call (ExplicitSeeks). Opens: 0.65 s / 19 = ~34 ms.
func paragonPassion() pio.ClientParams {
	return pio.ClientParams{
		Name:          "passion",
		OpenSec:       0.034,
		CloseSec:      0.026,
		FlushSec:      0.003,
		ReadCallSec:   0.0425,
		WriteCallSec:  0.030,
		SeekSec:       0.00042,
		ExplicitSeeks: true,
	}
}

// paragonNative is the direct PFS call path: a couple of milliseconds of
// client-side file-system code per call, no library layers. Used by the
// hand-written FFT code (§4.4), whose I/O cost is therefore dominated by
// the I/O nodes rather than the client software.
func paragonNative() pio.ClientParams {
	return pio.ClientParams{
		Name:          "pfs-native",
		OpenSec:       0.020,
		CloseSec:      0.010,
		FlushSec:      0.002,
		ReadCallSec:   0.002,
		WriteCallSec:  0.002,
		SeekSec:       0.0005,
		ExplicitSeeks: false,
	}
}

// ParagonSmall is the 56-compute-node Paragon used for the FFT experiments,
// with a 2- or 4-node I/O partition.
func ParagonSmall(nio int) (*Config, error) {
	if nio != 2 && nio != 4 {
		return nil, fmt.Errorf("machine: small Paragon has 2- or 4-node I/O partitions, not %d", nio)
	}
	c := &Config{
		Name: "paragon-small-" + strconv.Itoa(nio) + "io",
		Kind: topology.Mesh2D,
		Rows: 16, Cols: 4, // 56 compute + I/O + service fit a 16x4 mesh
		NumCompute:        56,
		NumIO:             nio,
		NumService:        3,
		CPUFlops:          25e6, // i860 XP: 75 MFlops peak, ~25 sustained
		MemoryBytes:       32 << 20,
		Net:               paragonNet(),
		Node:              paragonIONode(),
		DefaultStripeUnit: 64 << 10,
		Fortran:           paragonFortran(),
		Passion:           paragonPassion(),
		Unix:              paragonFortran(), // no separate UNIX layer on PFS here
		Native:            paragonNative(),
	}
	return c, c.Validate()
}

// ParagonLarge is the 512-compute-node Paragon with a 12-, 16- or 64-node
// I/O partition, used for the SCF and AST experiments.
func ParagonLarge(nio int) (*Config, error) {
	if nio != 12 && nio != 16 && nio != 64 {
		return nil, fmt.Errorf("machine: large Paragon has 12/16/64-node I/O partitions, not %d", nio)
	}
	c := &Config{
		Name: "paragon-large-" + strconv.Itoa(nio) + "io",
		Kind: topology.Mesh2D,
		Rows: 37, Cols: 16, // 512 compute + up to 64 I/O + service
		NumCompute:        512,
		NumIO:             nio,
		NumService:        4,
		CPUFlops:          25e6,
		MemoryBytes:       32 << 20,
		Net:               paragonNet(),
		Node:              paragonIONode(),
		DefaultStripeUnit: 64 << 10,
		Fortran:           paragonFortran(),
		Passion:           paragonPassion(),
		Unix:              paragonFortran(),
		Native:            paragonNative(),
	}
	return c, c.Validate()
}

// sp2Disk models one SSA drive behind PIOFS: ~2.5 MB/s effective per
// spindle through the server path (the drives stream faster raw, but the
// PIOFS server gates them), millisecond seeks. Fitted so the optimized
// BTIO bandwidth lands in the paper's Figure 7 band (6.6-31.4 MB/s).
func sp2Disk() disk.Params {
	return disk.Params{
		RequestOverhead: 1.0e-3,
		SeekMin:         5.0e-3,
		SeekMax:         18.0e-3,
		FullStroke:      8 << 30, // 9 GB SSA drives
		ByteTime:        4.0e-7,  // ~2.5 MB/s effective
	}
}

// sp2IONode: four SSA drives behind one PIOFS server.
func sp2IONode() ionode.Params {
	return ionode.Params{
		ServerOverhead:    1.0e-3,
		NumDisks:          4,
		Disk:              sp2Disk(),
		CacheBytes:        512 << 10,
		CacheCopyByteTime: 7.0e-9, // ~150 MB/s POWER2 copy
	}
}

// sp2Net: the SP switch, ~40 us latency, ~35 MB/s per-task bandwidth.
func sp2Net() network.Params {
	return network.Params{
		Latency:         40e-6,
		ByteTime:        2.9e-8,
		HopTime:         5e-7,
		MemCopyByteTime: 7.0e-9,
	}
}

// sp2Unix is the MPI-2 I/O "UNIX-style interface" of the BTIO base version:
// a cheap per-call path (PIOFS clients were efficient), so the damage comes
// entirely from request count and disk seeks, as §4.5 describes.
func sp2Unix() pio.ClientParams {
	return pio.ClientParams{
		Name:          "unix",
		OpenSec:       0.020,
		CloseSec:      0.010,
		FlushSec:      0.002,
		ReadCallSec:   0.001,
		WriteCallSec:  0.001,
		SeekSec:       0.0003,
		ExplicitSeeks: false,
	}
}

// SP2 is the 80-node SP-2 with its fixed 4-node PIOFS I/O partition (the
// fifth node is the directory server, which takes no data traffic).
func SP2() (*Config, error) {
	c := &Config{
		Name:              "sp2",
		Kind:              topology.Switched,
		SwitchHops:        2,
		NumCompute:        75,
		NumIO:             4,
		NumService:        1,
		CPUFlops:          100e6, // RS/6000-390: 266 MFlops peak, ~100 sustained
		MemoryBytes:       256 << 20,
		Net:               sp2Net(),
		Node:              sp2IONode(),
		DefaultStripeUnit: 32 << 10, // PIOFS BSU
		Fortran:           sp2Unix(),
		Passion:           sp2Unix(),
		Unix:              sp2Unix(),
		Native:            sp2Unix(),
	}
	return c, c.Validate()
}
