package pfs

import (
	"testing"

	"pario/internal/sim"
)

// transfers spawns two clients that together make n 64 KiB transfers at
// advancing offsets of a file striped over factor of four I/O nodes, in
// 16 KiB units: each transfer touches factor nodes, and the two clients
// contend at the I/O nodes' NICs and disks.
func transfers(tb testing.TB, n, factor int, write bool) *sim.Engine {
	const su, size = 16 << 10, 64 << 10
	e, fs := newFS(tb, 4)
	f, err := fs.Create("bench", Layout{StripeUnit: su, StripeFactor: factor}, 256*size)
	if err != nil {
		tb.Fatal(err)
	}
	for c := 0; c < 2; c++ {
		e.Spawn("client", func(p *sim.Proc) {
			for i := c; i < n; i += 2 {
				f.Transfer(p, c, int64(i%256)*size, size, write)
			}
		})
	}
	return e
}

// BenchmarkTransfer measures one File.Transfer — the request messages, the
// device accesses and, for a read, the data replies — on one I/O node and
// striped over four.
func BenchmarkTransfer(b *testing.B) {
	for _, bc := range []struct {
		name   string
		factor int
		write  bool
	}{
		{"1io/read", 1, false},
		{"1io/write", 1, true},
		{"4io/read", 4, false},
		{"4io/write", 4, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			e := transfers(b, b.N, bc.factor, bc.write)
			b.ReportAllocs()
			b.ResetTimer()
			if err := e.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
