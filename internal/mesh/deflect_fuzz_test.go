package mesh

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// fuzzRouters are the routers FuzzDeflectionPermutation's routerIdx
// selects; index 0 is deflection, so the corpus seeds recorded before the
// router input existed keep their meaning.
var fuzzRouters = []string{"deflection", "vc"}

// FuzzDeflectionPermutation fuzzes the cycle-level routers' safety
// contract under arbitrary topologies, geometries and injection
// schedules. After every kernel step the router's white-box audit must
// hold: under deflection, the per-tick output assignment must have been a
// permutation (no two flits on one link in one cycle, pinned by strictly
// increasing arrival-ring stamps), no flit may be dropped or duplicated
// (the global flit ledger balances), and the active mask must track
// exactly the staged nodes; under vc, the active mask and candidate masks
// must track exactly the staged VCs. After the drain every injected
// packet must have been delivered, none earlier than its minimal route
// allows, and the link-traversal ledger must balance: actual traversals
// equal minimal flit-hops plus reported deflected hops, which are zero
// under vc. The checked-in corpus under testdata/fuzz seeds the edge
// geometries (1-wide grids, hotspot schedules, single-packet runs).
func FuzzDeflectionPermutation(f *testing.F) {
	seeds := []struct {
		seed                 uint64
		kindIdx, w, h, npkts int
	}{
		{1, 0, 4, 4, 32},  // paper mesh, mixed traffic
		{7, 1, 4, 4, 48},  // ring under load
		{9, 2, 4, 4, 48},  // torus wrap contention
		{3, 0, 1, 6, 16},  // degenerate 1-wide mesh (single axis)
		{11, 2, 1, 7, 24}, // degenerate 1-wide torus
		{42, 0, 6, 6, 64}, // bigger grid, heavier schedule
		{5, 1, 16, 1, 1},  // long ring, lone packet
	}
	for routerIdx := range fuzzRouters {
		for _, s := range seeds {
			f.Add(s.seed, routerIdx, s.kindIdx, s.w, s.h, s.npkts)
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, routerIdx, kindIdx, w, h, npkts int) {
		router := fuzzRouters[((routerIdx%len(fuzzRouters))+len(fuzzRouters))%len(fuzzRouters)]
		kinds := TopologyKinds()
		kind := kinds[((kindIdx%len(kinds))+len(kinds))%len(kinds)]
		width := ((w%6)+6)%6 + 1
		height := ((h%6)+6)%6 + 1
		npkts = ((npkts%64)+64)%64 + 1

		// splitmix64: a tiny deterministic PRNG so the schedule is a pure
		// function of the fuzz input (no math/rand state to leak between
		// runs).
		next := func() uint64 {
			seed += 0x9e3779b97f4a7c15
			z := seed
			z ^= z >> 30
			z *= 0xbf58476d1ce4e5b9
			z ^= z >> 27
			z *= 0x94d049bb133111eb
			return z ^ (z >> 31)
		}

		k := &sim.Kernel{}
		m := New(k, Config{Width: width, Height: height, Topology: kind,
			Router: router, LinkLatency: 3, LocalLatency: 1})
		n := m.Tiles()
		delivered := 0
		for tile := 0; tile < n; tile++ {
			m.Register(tile, func(p any) {
				if minAt := p.(int64); k.Now() < minAt {
					t.Fatalf("%s %s %dx%d: delivery at %d beats minimal-route bound %d",
						router, kind, width, height, k.Now(), minAt)
				}
				delivered++
			})
		}

		// The vc router, unlike deflection, does not gate a packet injected
		// by an event that runs before the same cycle's tick: that tick
		// already forwards its header, one cycle earlier than an injection
		// after the tick.
		sameCycle := int64(0)
		if router == "vc" {
			sameCycle = 1
		}

		// A pseudo-random timed schedule: packets injected over a 200-cycle
		// window from random sources to random destinations, so arbitration
		// sees every mix of ages, the side buffer gets real traffic and VC
		// allocation meets every mix of contending headers.
		for i := 0; i < npkts; i++ {
			src := int(next() % uint64(n))
			dst := int(next() % uint64(n))
			flits := 1 + int(next()%5)
			at := int64(next() % 200)
			k.At(at, func() {
				minAt := k.Now() + int64(m.Hops(src, dst))*3 + int64(flits) - sameCycle
				if src == dst {
					minAt = k.Now() + 1 // LocalLatency path, no fabric involved
				}
				m.Send(src, dst, flits, minAt)
			})
		}

		steps := 0
		for k.Step() {
			checkInvariants(t, m)
			steps++
			if steps > 2_000_000 {
				t.Fatalf("%s %s %dx%d: schedule of %d packets did not drain (livelock)",
					router, kind, width, height, npkts)
			}
		}
		if delivered != npkts {
			t.Fatalf("%s %s %dx%d: delivered %d of %d packets", router, kind, width, height, delivered, npkts)
		}
		checkDrained(t, m)
		checkTraversalLedger(t, m, fmt.Sprintf("%s %s %dx%d", router, kind, width, height))
	})
}
