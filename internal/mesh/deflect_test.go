package mesh

import (
	"testing"

	"repro/internal/sim"
)

// checkDeflConservation is the white-box no-drop/no-duplicate audit the
// deflection property and fuzz tests run after every kernel step: every
// live flit record sits in exactly one place (a link arrival ring, an
// injection queue, or a side buffer), per-node staged counts and the
// active bitmask agree with the structures, and each ring's arrival
// stamps are strictly increasing (at most one flit enters a link per
// cycle — the per-tick output-port assignment was a permutation).
func checkDeflConservation(t *testing.T, r *deflRouter) {
	t.Helper()
	total := 0
	for n := range r.nodes {
		nd, fn := &r.nodes[n], &r.fn[n]
		staged := 0
		for p := range fn.arr {
			ring := &fn.arr[p]
			prev := int64(-1)
			for i := 0; i < ring.n; i++ {
				slot := &ring.s[(ring.head+i)%len(ring.s)]
				if slot.v == nil {
					t.Fatalf("node %d port %d: nil flit in ring slot %d", n, p, i)
				}
				if slot.at <= prev {
					t.Fatalf("node %d port %d: ring stamps not strictly increasing (%d after %d) — two flits on one link in one cycle", n, p, slot.at, prev)
				}
				prev = slot.at
			}
			staged += ring.n
		}
		for i := nd.injHead; i < len(nd.injQ); i++ {
			if nd.injQ[i] == nil {
				t.Fatalf("node %d: nil flit in live injection queue", n)
			}
		}
		for _, f := range nd.sideQ {
			if f == nil {
				t.Fatalf("node %d: nil flit in side buffer", n)
			}
		}
		staged += nd.localLen()
		if staged != r.staged[n] {
			t.Fatalf("node %d: staged = %d but %d flits present", n, r.staged[n], staged)
		}
		bit := r.active[n>>6]>>uint(n&63)&1 == 1
		if bit != (r.staged[n] > 0) {
			t.Fatalf("node %d: active bit %v but staged = %d", n, bit, r.staged[n])
		}
		total += staged
	}
	if total != r.flits {
		t.Fatalf("%d flit records on the network, router accounts %d (drop or duplicate)", total, r.flits)
	}
}

// Per-packet minimality: a packet can never be delivered before its
// minimal route allows (injection + hops*L + flits). The payload carries
// the bound and the handler checks it against the kernel clock.
func TestDeflectionDeliveryNeverBeatsMinimalRoute(t *testing.T) {
	for _, kind := range TopologyKinds() {
		k := &sim.Kernel{}
		m := New(k, Config{Width: 4, Height: 4, Topology: kind, Router: "deflection",
			LinkLatency: 3, LocalLatency: 1})
		for tile := 0; tile < m.Tiles(); tile++ {
			m.Register(tile, func(p any) {
				if minAt := p.(int64); k.Now() < minAt {
					t.Fatalf("%s: delivery at %d beats minimal-route bound %d", kind, k.Now(), minAt)
				}
			})
		}
		for i := 0; i < 60; i++ {
			s, d, flits := i%16, (i*11+5)%16, 1+i%5
			if s == d {
				continue
			}
			m.Send(s, d, flits, k.Now()+int64(m.Hops(s, d))*3+int64(flits))
		}
		k.Run()
	}
}

// Starvation: a saturating hotspot cannot livelock a crossing flow. The
// cross packet is injected while the hotspot traffic is already in
// flight, so it is strictly the youngest traffic on the fabric — and it
// still delivers within the age-priority bound: every older flit
// advances productively each cycle it is staged, so once the older
// traffic drains the cross packet's own minimal route is all that
// remains. The bound is loose but finite: a constant factor over the
// older flits' ejection-serialized drain time plus the cross route.
func TestDeflectionHotspotCannotStarveCrossFlow(t *testing.T) {
	k := &sim.Kernel{}
	m := New(k, Config{Width: 4, Height: 4, Topology: "mesh", Router: "deflection",
		LinkLatency: 3, LocalLatency: 1})
	crossAt := int64(-1)
	for tile := 0; tile < m.Tiles(); tile++ {
		m.Register(tile, func(p any) {
			if s, ok := p.(string); ok && s == "cross" {
				crossAt = k.Now()
			}
		})
	}
	olderFlits := 0
	for round := 0; round < 12; round++ {
		for src := 1; src < 16; src++ {
			m.Send(src, 0, 5, nil)
			olderFlits += 5
		}
	}
	k.At(40, func() { m.Send(3, 12, 1, "cross") })
	if steps := k.RunLimit(2_000_000); steps == 2_000_000 {
		t.Fatal("hotspot traffic never drained (livelock)")
	}
	if crossAt < 0 {
		t.Fatal("cross packet starved: hotspot drained but it was never delivered")
	}
	bound := 40 + int64(olderFlits)*8 + int64(m.Hops(3, 12))*3 + 1
	if crossAt > bound {
		t.Fatalf("cross packet delivered at %d, beyond age-priority bound %d", crossAt, bound)
	}
}

// Point-to-point ordering: packets between one (src, dst) pair must
// deliver in injection order even when deflections reorder their flits
// on the fabric — the endpoint reorder buffer is what lets the coherence
// protocols run unchanged on the deflection router. The hotspot cross
// traffic makes detours (and therefore out-of-order ejections) likely.
func TestDeflectionDeliveryInOrderPerPair(t *testing.T) {
	k := &sim.Kernel{}
	m := New(k, Config{Width: 4, Height: 4, Topology: "mesh", Router: "deflection",
		LinkLatency: 3, LocalLatency: 1})
	lastSeq := make([]int, m.Tiles()) // per source, at the one destination
	for tile := 0; tile < m.Tiles(); tile++ {
		m.Register(tile, func(p any) {
			if p == nil {
				return
			}
			v := p.([2]int)
			src, seq := v[0], v[1]
			if seq != lastSeq[src]+1 {
				t.Fatalf("packet %d from tile %d delivered after %d", seq, src, lastSeq[src])
			}
			lastSeq[src] = seq
		})
	}
	for round := 1; round <= 10; round++ {
		for src := 1; src < 16; src++ {
			m.Send(src, 0, 1+(src+round)%5, [2]int{src, round})
			// Background cross traffic to force deflections on the way.
			m.Send((src+5)%16, (src*3)%16, 2, nil)
		}
	}
	if steps := k.RunLimit(2_000_000); steps == 2_000_000 {
		t.Fatal("network did not drain")
	}
	for src := 1; src < 16; src++ {
		if lastSeq[src] != 10 {
			t.Fatalf("tile %d delivered %d of 10 ordered packets", src, lastSeq[src])
		}
	}
}

// A saturating hotspot must both deflect (contention at the hot tile's
// inbound ports) and report strictly higher mean latency than the ideal
// reservation model — congestion is visible, not hidden.
func TestDeflectionHotspotTelemetry(t *testing.T) {
	ideal := hotspotMeanLatency(t, "ideal")
	defl := hotspotMeanLatency(t, "deflection")
	if !(defl > ideal) {
		t.Fatalf("deflection mean latency %.2f not strictly above ideal %.2f", defl, ideal)
	}
	k, m, _ := newRouterTest(t, "deflection", "mesh", 4, 4)
	for round := 0; round < 8; round++ {
		for src := 1; src < 16; src++ {
			m.Send(src, 0, 5, nil)
		}
	}
	k.Run()
	s := m.Stats()
	if s.Router != "deflection" {
		t.Fatalf("stats router = %q", s.Router)
	}
	if s.DeflectedHops == 0 {
		t.Fatal("saturating hotspot produced zero deflected hops")
	}
	if s.PeakVCOccupancy <= 0 {
		t.Fatalf("peak local-queue occupancy %d; injection backlog must register", s.PeakVCOccupancy)
	}
	if s.LinkUtilMax <= s.LinkUtilMean || s.LinkUtilMax > 1 {
		t.Fatalf("link utilization mean %.3f max %.3f implausible", s.LinkUtilMean, s.LinkUtilMax)
	}
	var histTotal uint64
	for _, c := range s.LatencyHist {
		histTotal += c
	}
	if histTotal != s.Delivered {
		t.Fatalf("latency histogram counts %d packets, delivered %d", histTotal, s.Delivered)
	}
}
