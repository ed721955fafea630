package mesh

import (
	"math/bits"
	"testing"

	"repro/internal/sim"
)

// The properties both cycle-level routers share are written once here,
// run per router by the TestVC* and TestDeflection* entry points below,
// with each router's own bounds in cycleBounds.

// cycleBounds are the per-router limits of the O(active) work test: one
// 5-flit packet crossing a 16x16 mesh may visit at most perTick nodes in
// any tick and perHop x (hops + flits) nodes in total. Deflection's are
// looser: without per-hop buffering every in-flight flit keeps its own
// node staged, so the packet spans up to flits+2 nodes and each flit's
// node is visited once per link stage.
var cycleBounds = map[string]struct{ perTick, perHop uint64 }{
	"vc":         {perTick: 7, perHop: 8},
	"deflection": {perTick: 8, perHop: 8 * 5},
}

// checkInvariants runs the router's white-box audit: the active-mask
// membership invariant under vc, the full conservation audit under
// deflection.
func checkInvariants(t *testing.T, m *Mesh) {
	t.Helper()
	switch r := m.r.(type) {
	case *vcRouter:
		checkActiveMask(t, r)
	case *deflRouter:
		checkDeflConservation(t, r)
	}
}

// checkActiveMask verifies the vc membership invariant the O(active) tick
// relies on: active bit n is set exactly while node n's staged count is
// positive, the staged count matches the node's live stages, the
// candidate masks are the per-output view of the same stages, and the
// outs summary flags exactly the outputs with candidates.
func checkActiveMask(t *testing.T, r *vcRouter) {
	t.Helper()
	for n := range r.nodes {
		nd, active := &r.nodes[n], r.staged[n]
		bit := r.active[n>>6]>>uint(n&63)&1 == 1
		if bit != (active > 0) {
			t.Fatalf("node %d: active bit %v but staged = %d", n, bit, active)
		}
		staged := 0
		for id := range nd.stages {
			if nd.stages[id].pkt != nil {
				staged++
			}
		}
		if staged != active {
			t.Fatalf("node %d: staged = %d but %d stages hold packets", n, active, staged)
		}
		cand := 0
		for _, w := range nd.cand {
			cand += bits.OnesCount64(w)
		}
		if cand != active {
			t.Fatalf("node %d: staged = %d but %d candidate bits set", n, active, cand)
		}
		for out := 0; out <= r.eject; out++ {
			if bit := nd.outs>>uint(out)&1 != 0; bit != r.hasCand(nd, out) {
				t.Fatalf("node %d: outs bit %d is %v, candidate words disagree", n, out, bit)
			}
		}
	}
}

// checkDrained asserts a fully drained network: no packet in flight, no
// active bit, and (under deflection) no live flit record.
func checkDrained(t *testing.T, m *Mesh) {
	t.Helper()
	var inFlight int
	var active []uint64
	switch r := m.r.(type) {
	case *vcRouter:
		inFlight, active = r.inFlight, r.active
	case *deflRouter:
		inFlight, active = r.inFlight, r.active
		if r.flits != 0 {
			t.Fatalf("drained network still accounts %d flits", r.flits)
		}
	}
	if inFlight != 0 {
		t.Fatalf("drained network still accounts %d packets", inFlight)
	}
	for w, word := range active {
		if word != 0 {
			t.Fatalf("drained network still has active bits in word %d: %#x", w, word)
		}
	}
}

// checkTraversalLedger asserts that after a drain the link traversals
// equal the minimal flit-hops charged at injection plus the deflected
// hops reported as waste (which only the deflection router may report).
func checkTraversalLedger(t *testing.T, m *Mesh, what string) {
	t.Helper()
	var traversals uint64
	for _, l := range m.Topology().Links() {
		traversals += uint64(m.linkBusy[l.From][l.Port])
	}
	s := m.Stats()
	if traversals != m.FlitHops()+s.DeflectedHops {
		t.Fatalf("%s: %d link traversals, want minimal %d + deflected %d",
			what, traversals, m.FlitHops(), s.DeflectedHops)
	}
	if m.Router() != "deflection" && s.DeflectedHops != 0 {
		t.Fatalf("%s: %s router reported %d deflected hops", what, m.Router(), s.DeflectedHops)
	}
}

// An uncontended flit pays one allocation (vc) or arbitration
// (deflection) cycle at injection plus LinkLatency per hop: hops*L + 1,
// one cycle more than the ideal router's hops*L, and never deflects.
func TestVCUncontendedSingleFlitLatency(t *testing.T) { testUncontendedSingleFlit(t, "vc") }
func TestDeflectionUncontendedSingleFlitLatency(t *testing.T) {
	testUncontendedSingleFlit(t, "deflection")
}

func testUncontendedSingleFlit(t *testing.T, router string) {
	k, m, delivered := newRouterTest(t, router, "mesh", 4, 4)
	m.Send(0, 15, 1, nil) // 6 hops
	k.Run()
	if *delivered != 1 {
		t.Fatal("not delivered")
	}
	s := m.Stats()
	if s.LatencyMax != 6*3+1 {
		t.Fatalf("%s 1-flit latency = %d, want 19", router, s.LatencyMax)
	}
	if s.DeflectedHops != 0 {
		t.Fatalf("uncontended flit deflected %d hops", s.DeflectedHops)
	}
}

// Multi-flit packets pipeline one flit per cycle behind the header:
// hops*L + flits, again exactly one cycle over the ideal formula.
func TestVCUncontendedMultiFlitLatency(t *testing.T) { testUncontendedMultiFlit(t, "vc") }
func TestDeflectionUncontendedMultiFlitLatency(t *testing.T) {
	testUncontendedMultiFlit(t, "deflection")
}

func testUncontendedMultiFlit(t *testing.T, router string) {
	k, m, _ := newRouterTest(t, router, "mesh", 4, 4)
	m.Send(0, 2, 4, "a") // 2 hops, 4 flits (= VCDepth, so no credit stall)
	k.Run()
	if got := m.Stats().LatencyMax; got != 2*3+4 {
		t.Fatalf("%s 4-flit 2-hop latency = %d, want 10", router, got)
	}
}

// Both routers are deterministic: identical injection sequences yield
// identical delivery times, latencies and telemetry (deflected hops
// included) on every topology.
func TestVCSendDeterministicPerTopology(t *testing.T) { testSendDeterministic(t, "vc") }
func TestDeflectionSendDeterministicPerTopology(t *testing.T) {
	testSendDeterministic(t, "deflection")
}

func testSendDeterministic(t *testing.T, router string) {
	for _, kind := range TopologyKinds() {
		run := func() (int64, NetStats) {
			k, m, _ := newRouterTest(t, router, kind, 4, 4)
			for i := 0; i < 40; i++ {
				m.Send(i%16, (i*7+3)%16, 1+i%5, nil)
			}
			k.Run()
			return k.Now(), m.Stats()
		}
		t1, s1 := run()
		t2, s2 := run()
		if t1 != t2 || s1 != s2 {
			t.Fatalf("%s: nondeterministic %s delivery: %d/%d %+v %+v", kind, router, t1, t2, s1, s2)
		}
	}
}

// All-to-all traffic drains on every topology. Under vc the dateline VC
// classes break the ring/torus wraparound dependency cycles, so the
// credit-based router cannot deadlock; under deflection oldest-first
// priority is the livelock-freedom argument (the globally oldest flit
// always wins its arbitration). RunLimit bounds the test against
// livelock. After the drain the traversal ledger balances, and the mesh
// contention must have deflected something under deflection.
func TestVCAllToAllDrainsEveryTopology(t *testing.T) { testAllToAllDrains(t, "vc") }
func TestDeflectionAllToAllDrainsEveryTopology(t *testing.T) {
	testAllToAllDrains(t, "deflection")
}

func testAllToAllDrains(t *testing.T, router string) {
	for _, kind := range TopologyKinds() {
		k, m, delivered := newRouterTest(t, router, kind, 4, 4)
		want := 0
		for s := 0; s < 16; s++ {
			for d := 0; d < 16; d++ {
				if s == d {
					continue
				}
				m.Send(s, d, 5, nil)
				want++
			}
		}
		if steps := k.RunLimit(5_000_000); steps == 5_000_000 {
			t.Fatalf("%s: %s network livelocked", kind, router)
		}
		if *delivered != want {
			t.Fatalf("%s: delivered %d of %d packets", kind, *delivered, want)
		}
		checkDrained(t, m)
		checkTraversalLedger(t, m, kind)
		if router == "deflection" && kind == "mesh" && m.Stats().DeflectedHops == 0 {
			t.Errorf("mesh all-to-all saw no deflections; contention model suspect")
		}
	}
}

// The O(active) claim, pinned with the core's work counter: a single
// 5-flit flow crossing a 16x16 mesh keeps only the nodes it is staged at
// on the active mask, so per-tick node visits are bounded by the flow's
// footprint — not by the 256 tiles a full scan would walk every cycle —
// and total visits by O(hops + flits), nowhere near hops x 256.
func TestVCTickWorkIsOActive(t *testing.T)         { testTickWorkIsOActive(t, "vc") }
func TestDeflectionTickWorkIsOActive(t *testing.T) { testTickWorkIsOActive(t, "deflection") }

func testTickWorkIsOActive(t *testing.T, router string) {
	k := &sim.Kernel{}
	m := New(k, Config{Width: 16, Height: 16, Router: router, LinkLatency: 3, LocalLatency: 1})
	for tile := 0; tile < m.Tiles(); tile++ {
		m.Register(tile, func(any) {})
	}
	visits := func() uint64 {
		switch r := m.r.(type) {
		case *vcRouter:
			return r.tickVisits
		case *deflRouter:
			return r.tickVisits
		}
		panic("not a cycle-level router")
	}

	// One 5-flit packet corner to corner: 30 hops on the 16x16 mesh.
	hops := m.Send(0, m.Tiles()-1, 5, nil)

	maxPerStep, ticks := uint64(0), 0
	prev := visits()
	for k.Step() {
		if d := visits() - prev; d > 0 {
			ticks++
			if d > maxPerStep {
				maxPerStep = d
			}
		}
		prev = visits()
	}

	if ticks == 0 {
		t.Fatal("no ticks fired; the traversal did not run")
	}
	b := cycleBounds[router]
	if maxPerStep > b.perTick {
		t.Errorf("a single 5-flit flow visited %d nodes in one tick, want <= %d (O(active), not O(tiles))", maxPerStep, b.perTick)
	}
	if total, bound := visits(), b.perHop*uint64(hops+5); total > bound {
		t.Errorf("traversal visited %d nodes total over %d hops, want <= %d", total, hops, bound)
	}
}

// The allocation-free steady state at the paper's 4x4 and at 16x16: once
// the free lists, rings and queue backing arrays are warm, ticking the
// network — allocation or arbitration, credit returns, deflections,
// side-buffer parking, deliveries and re-injection included — performs
// zero heap allocations.
func TestVCTickZeroAlloc(t *testing.T)         { testTickZeroAlloc(t, "vc") }
func TestDeflectionTickZeroAlloc(t *testing.T) { testTickZeroAlloc(t, "deflection") }

func testTickZeroAlloc(t *testing.T, router string) {
	for _, dim := range []struct {
		name string
		w, h int
	}{{"4x4", 4, 4}, {"16x16", 16, 16}} {
		t.Run(dim.name, func(t *testing.T) {
			k := &sim.Kernel{}
			w, h := dim.w, dim.h
			m := New(k, Config{Width: w, Height: h, Router: router, LinkLatency: 3, LocalLatency: 1})
			for tile := 0; tile < m.Tiles(); tile++ {
				m.Register(tile, func(any) {})
			}

			// A deterministic burst of crossing multi-flit packets:
			// corner-to-corner streams plus nearby traffic, enough head-on
			// contention for credit stalls, deflections and the ejection
			// path at once. Corners are computed from the dims so the same
			// shape runs on any grid.
			last := m.Tiles() - 1
			burst := func() {
				m.Send(0, last, 5, nil)
				m.Send(last, 0, 5, nil)
				m.Send(w-1, last-(w-1), 5, nil)
				m.Send(last-(w-1), w-1, 5, nil)
				m.Send(1, last-2, 5, nil)
				m.Send(w+1, w+2, 5, nil)
			}

			// Warm every pool: packet, flit and delivery free lists, the
			// credit ring, queue backing arrays, and the kernel's events.
			for i := 0; i < 3; i++ {
				burst()
				k.Run()
			}

			// Dry run to learn how many kernel steps one warm burst takes.
			burst()
			steps := 0
			for k.Step() {
				steps++
			}
			if steps < 20 {
				t.Fatalf("burst drained in %d steps; too short to measure", steps)
			}

			// Measured run over the identical schedule. AllocsPerRun calls
			// the function runs+1 times (one warm-up call), so stay inside
			// the burst.
			burst()
			avg := testing.AllocsPerRun(steps-2, func() {
				if !k.Step() {
					t.Fatal("kernel drained mid-measurement")
				}
			})
			k.Run()
			if avg != 0 {
				t.Fatalf("steady-state %s tick allocates: %v allocs per kernel step, want 0", router, avg)
			}
		})
	}
}

// The active-mask invariant under busy bursts on a 16x16 mesh and torus,
// audited after every kernel step — including the dateline (wraparound)
// paths the torus exercises. Run under -race in CI.
func TestVCActiveMaskInvariant(t *testing.T)         { testActiveMaskInvariant(t, "vc") }
func TestDeflectionActiveMaskInvariant(t *testing.T) { testActiveMaskInvariant(t, "deflection") }

func testActiveMaskInvariant(t *testing.T, router string) {
	for _, topo := range []string{"mesh", "torus"} {
		t.Run(topo, func(t *testing.T) {
			k := &sim.Kernel{}
			m := New(k, Config{Width: 16, Height: 16, Topology: topo, Router: router,
				LinkLatency: 3, LocalLatency: 1})
			for tile := 0; tile < m.Tiles(); tile++ {
				m.Register(tile, func(any) {})
			}
			hot := 16*8 + 8
			for round := 0; round < 3; round++ {
				// Crossing streams, a hotspot, and wraparound-adjacent
				// sources so torus wrap ports carry traffic.
				for _, src := range []int{0, 15, 240, 255, 7, 248} {
					m.Send(src, hot, 5, nil)
					m.Send(hot, src, 3, nil)
				}
				m.Send(0, 255, 5, nil)
				m.Send(255, 0, 5, nil)
				for k.Step() {
					checkInvariants(t, m)
				}
				checkInvariants(t, m)
			}
			checkDrained(t, m)
		})
	}
}
