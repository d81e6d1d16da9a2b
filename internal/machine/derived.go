package machine

import (
	"math"

	"pario/internal/pio"
)

// Derived analytic rates. These fold the layered cost models into the
// closed-form ceilings the roofline estimator (internal/roofline) reasons
// with: the spindle count, per-request disk positioning cost, link latency
// and the client software path per interface. They
// are derivations, not new calibration — every number traces back to the
// Params structs above.

// Spindles is the total number of disks behind the I/O partition.
func (c *Config) Spindles() int {
	return c.NumIO * c.Node.NumDisks
}

// DiskRequestSec is the non-transfer cost of one disk request: fixed
// request overhead plus the expected seek for a head movement spanning
// seekFrac of the full stroke (the same square-root positioning curve the
// disk model integrates). seekFrac 0 means a perfectly sequential
// continuation, which the disk model serves with no seek at all.
func (c *Config) DiskRequestSec(seekFrac float64) float64 {
	d := c.Node.Disk
	t := d.RequestOverhead
	if seekFrac > 0 {
		f := math.Sqrt(math.Min(seekFrac, 1))
		t += d.SeekMin + (d.SeekMax-d.SeekMin)*f
	}
	return t
}

// LinkLatencySec is the expected end-to-end message latency for a typical
// compute-to-I/O-node distance, dominated by the fixed Latency term (hop
// time is sub-microsecond on both machines).
func (c *Config) LinkLatencySec() float64 {
	hops := c.SwitchHops
	if hops == 0 { // mesh: half the semi-perimeter is the expected distance
		hops = (c.Rows + c.Cols) / 2
	}
	return c.Net.Latency + float64(hops)*c.Net.HopTime
}

// Interface resolves a client interface by canonical name.
func (c *Config) Interface(name string) pio.ClientParams {
	switch name {
	case "passion":
		return c.Passion
	case "unix":
		return c.Unix
	case "native":
		return c.Native
	default:
		return c.Fortran
	}
}
