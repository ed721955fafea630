package mesh

import (
	"testing"

	"repro/internal/sim"
)

// Router-isolated benches for the cycle-level routers: drive the fabric
// directly (no protocol engines, no memory system), so ns/op measures the
// tick loop itself. The end-to-end SimThroughput* benches at the repo root
// are dominated by the cache/DRAM simulation; these expose the O(active)
// tick, skip-ahead and arbitration costs. Each shape runs under "vc"
// (BenchmarkVC*) and "deflection" (BenchmarkDefl*).

// benchLoop warms the router's pools with three bursts, then times one
// burst-and-drain per iteration.
func benchLoop(b *testing.B, router string, w, h int, burst func(m *Mesh)) {
	k := &sim.Kernel{}
	m := New(k, Config{Width: w, Height: h, Router: router, LinkLatency: 3, LocalLatency: 1})
	for tile := 0; tile < m.Tiles(); tile++ {
		m.Register(tile, func(any) {})
	}
	for i := 0; i < 3; i++ {
		burst(m)
		k.Run()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		burst(m)
		k.Run()
	}
}

// benchSparseFlow: one 5-flit packet crosses the full diameter and drains.
// On a 16x16 mesh this is the sparse extreme — a handful of the 256
// routers hold work at any cycle.
func benchSparseFlow(b *testing.B, router string, w, h int) {
	benchLoop(b, router, w, h, func(m *Mesh) { m.Send(0, m.Tiles()-1, 5, nil) })
}

// benchSparseHotspot: the four corner tiles of a 16x16 mesh stream
// multi-flit packets at one central hot tile. A few routers along the four
// routes carry all the work while ~240 tiles idle (under deflection, the
// hot tile's contention also forces deflections).
func benchSparseHotspot(b *testing.B, router string) {
	hot := 16*8 + 8 // central tile
	benchLoop(b, router, 16, 16, func(m *Mesh) {
		for _, src := range []int{0, 15, 240, 255} {
			m.Send(src, hot, 5, nil)
		}
	})
}

// benchDense saturates the paper's 4x4 fabric with crossing streams — the
// dense regression guard: with every router active the mask walk must
// cost no more than a full scan.
func benchDense(b *testing.B, router string) {
	benchLoop(b, router, 4, 4, func(m *Mesh) {
		for t := 0; t < 16; t++ {
			m.Send(t, 15-t, 5, nil)
		}
	})
}

func BenchmarkVCSparseFlow4x4(b *testing.B)        { benchSparseFlow(b, "vc", 4, 4) }
func BenchmarkVCSparseFlow16x16(b *testing.B)      { benchSparseFlow(b, "vc", 16, 16) }
func BenchmarkVCSparseHotspot16x16(b *testing.B)   { benchSparseHotspot(b, "vc") }
func BenchmarkVCDense4x4(b *testing.B)             { benchDense(b, "vc") }
func BenchmarkDeflSparseFlow4x4(b *testing.B)      { benchSparseFlow(b, "deflection", 4, 4) }
func BenchmarkDeflSparseFlow16x16(b *testing.B)    { benchSparseFlow(b, "deflection", 16, 16) }
func BenchmarkDeflSparseHotspot16x16(b *testing.B) { benchSparseHotspot(b, "deflection") }
func BenchmarkDeflDense4x4(b *testing.B)           { benchDense(b, "deflection") }
