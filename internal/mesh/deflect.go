package mesh

// The cycle-level deflection router (Config.Router = "deflection"): a
// minimally-buffered (bufferless-style) forwarding model in the
// BLESS/CHIPPER/MinBD lineage. Routers hold no packet buffers on the
// links: every flit that arrives at a router this cycle must leave it
// this cycle — through its productive output port when it wins
// arbitration, through any free non-productive port (a *deflection*)
// when it loses, or into the node's small local side buffer in the one
// case per cycle where every output is taken. The model trades buffer
// area for extra link traversals, which is exactly the tradeoff the
// paper's waste accounting can measure: the extra traversals surface as
// NetStats.DeflectedHops, a waste category neither "ideal" nor "vc" can
// express.
//
// Flit-level forwarding and reassembly: packets are split into flits at
// injection and every flit routes independently (deflections reorder
// them freely), so the destination counts arrivals and completes the
// packet when the last flit ejects. A packet's latency is therefore
// injection to last-flit ejection, directly comparable with the vc
// router's header-to-tail window (both models deliver an uncontended
// packet in hops*LinkLatency + flits cycles; one flit in hops*L + 1).
//
// Point-to-point ordering: deflections can let a younger packet reach
// the destination before an older one from the same source (the older
// one took a detour), but the coherence protocols — like every fabric
// client built against the ideal and vc routers — assume each (src, dst)
// channel delivers in injection order. The destination therefore keeps a
// small reorder buffer per ordered pair: a packet whose flits have all
// ejected is held until every earlier packet of its channel has
// delivered, and its latency window runs to the release cycle, so the
// reordering cost is measured rather than leaked into the protocol.
//
// Priority and livelock freedom: contention is resolved oldest-first by
// the strict total order (packet injection cycle, packet sequence
// number, flit index). The globally oldest staged flit wins every
// arbitration it enters — ejection and output ports are assigned in
// priority order at its node, nothing at another node competes for them
// — so it moves productively every cycle it is staged and delivers in
// bounded time; induction over the order gives every flit a delivery
// bound. No separate age threshold is needed: age *is* the priority.
//
// The side buffer: with the symmetric registered topologies (every
// node's in-degree equals its out-degree), a cycle's candidates at a
// node are at most in-degree arrivals plus one local flit, against
// out-degree links plus one ejection slot — so at most one candidate per
// node per cycle can fail to get a port, and it parks in the node's side
// buffer (a MinBD-style local queue shared with the injection backlog).
// Side-buffered flits re-enter arbitration as the node's local
// candidate, chosen oldest-first across the side buffer and the
// injection queue, so an old parked flit displaces younger injections
// and cannot starve.
//
// Determinism, O(active) ticks and skip-ahead come from the cycle-fabric
// core (fabric.go): the whole network advances inside the kernel's
// recurring-tick slot in ascending node order over the active nodes (a
// node is staged while it holds any flit: on an inbound link, in its
// injection backlog or in its side buffer), and a no-progress tick proves
// every staged flit waits on a future link arrival. The router's own
// horizon is the next cycle when a same-cycle injection was gated (see
// tickNode). Packets, flits and queue backing arrays are recycled through
// free lists, so a steady-state tick performs zero heap allocations
// (TestDeflectionTickZeroAlloc pins that).
//
// Waste accounting: every link traversal is charged to the per-link
// utilization telemetry as it happens, and when a flit ejects, the hops
// it actually took beyond its minimal route are added to
// Mesh.deflHops — so after a drain, total link traversals equal the
// minimal flit-hops the fabric charges at injection plus
// NetStats.DeflectedHops (FuzzDeflectionPermutation pins the identity).

import "math"

// deflPkt is one packet in flight on the deflection network: flit
// bookkeeping plus the reassembly count. Recycled through the router's
// free list once the last flit ejects.
type deflPkt struct {
	dst, flits int
	minHops    int // minimal route length, for deflected-hop accounting
	payload    any
	injectAt   int64
	seq        uint64 // per-router injection sequence, the priority tiebreak
	arrived    int    // flits ejected at dst so far

	// The (src, dst) channel's in-order delivery state: pairSeq is this
	// packet's position on the channel and pair the shared channel record
	// (see deliver).
	pairSeq uint64
	pair    *deflPair

	// next links the packet on the free list, or on its channel's reorder
	// buffer while it waits for earlier packets to deliver.
	next *deflPkt
}

// deflPair is one (src, dst) ordered channel: the injection-side sequence
// counter, the delivery-side cursor, and the reorder buffer of completed
// packets held for an earlier one (sorted by pairSeq, almost always
// empty). Records are created on a channel's first packet and kept for
// the life of the router, so the steady state allocates nothing.
type deflPair struct {
	nextInject  uint64
	nextDeliver uint64
	pending     *deflPkt
}

// deflFlit is one independently-routed flit. Flits outlive their order:
// deflections reorder them, so each carries its index (the final
// priority tiebreak) and its own hop counter for waste accounting.
type deflFlit struct {
	pkt  *deflPkt
	idx  int
	hops int // links traversed so far (>= pkt.minHops at ejection)
	next *deflFlit
}

// before reports whether flit a outranks flit b under the oldest-first
// total order: injection cycle, then packet sequence, then flit index.
// The order is strict (no two staged flits compare equal), which is what
// makes arbitration — and therefore the whole model — deterministic.
func (a *deflFlit) before(b *deflFlit) bool {
	if a.pkt.injectAt != b.pkt.injectAt {
		return a.pkt.injectAt < b.pkt.injectAt
	}
	if a.pkt.seq != b.pkt.seq {
		return a.pkt.seq < b.pkt.seq
	}
	return a.idx < b.idx
}

// deflNode is one router of the deflection network.
type deflNode struct {
	// The local queue: injQ is the injection backlog (appended in
	// priority order, so its head is its oldest flit) and sideQ holds
	// side-buffered flits (at most one parks per cycle; scanned for the
	// oldest). The node's single local candidate each cycle is the older
	// of the two heads.
	injQ    []*deflFlit
	injHead int
	sideQ   []*deflFlit
}

// localLen returns the local-queue occupancy (injection backlog plus
// side buffer), the quantity tracked as peak buffering telemetry.
func (nd *deflNode) localLen() int { return len(nd.injQ) - nd.injHead + len(nd.sideQ) }

// deflCand is one cycle's arbitration candidate at a node. src encodes
// where the flit came from: srcInj/srcSide for the local candidate
// (still in its queue; removed only if it wins an output), or >= 0 for
// an arrival already popped from that input port's ring.
type deflCand struct {
	f   *deflFlit
	src int
}

const (
	srcInj  = -1
	srcSide = -2
)

type deflRouter struct {
	// The core's arrival rings carry the flits in flight on each inbound
	// link. At most one flit enters a link per cycle and every arrival is
	// consumed the tick it lands, so a ring holds at most LinkLatency+1
	// flits with strictly increasing stamps. A node's staged count is its
	// ring occupancy plus its local queue.
	fabric[*deflFlit]
	ports int
	nodes []deflNode
	flits int    // flit records currently on the network
	seq   uint64 // next packet sequence number

	// Per-tick scratch, reused across nodes so arbitration allocates
	// nothing: the candidate list (at most in-degree + 1 entries) and
	// the output-port claim flags.
	cands     []deflCand
	portTaken []bool
	sideIdx   int  // index in sideQ of the current local candidate
	injGated  bool // this tick skipped a same-cycle injection (see tickNode)

	// pairs holds the per-(src, dst) in-order delivery records, keyed
	// src<<32|dst (see deliver).
	pairs map[uint64]*deflPair

	pktFree  *deflPkt
	flitFree *deflFlit
}

func newDeflRouter(m *Mesh) *deflRouter {
	ports := m.topo.Ports()
	r := &deflRouter{fabric: newFabric[*deflFlit](m, 1, int(m.cfg.LinkLatency)+1), ports: ports}
	r.nodes = make([]deflNode, len(r.fn))
	r.cands = make([]deflCand, 0, ports+1)
	r.portTaken = make([]bool, ports)
	r.pairs = make(map[uint64]*deflPair)
	m.k.SetTicker(r.tick)
	return r
}

func (r *deflRouter) kind() string { return "deflection" }

func (r *deflRouter) newFlit(pkt *deflPkt, idx int) *deflFlit {
	f := r.flitFree
	if f == nil {
		f = &deflFlit{}
	} else {
		r.flitFree = f.next
		f.next = nil
	}
	f.pkt, f.idx, f.hops = pkt, idx, 0
	return f
}

func (r *deflRouter) inject(src, dst, flits int, payload any) int {
	pkt := r.pktFree
	if pkt == nil {
		pkt = &deflPkt{}
	} else {
		r.pktFree = pkt.next
		pkt.next = nil
	}
	hops := r.m.topo.Hops(src, dst)
	pkt.dst, pkt.flits, pkt.minHops = dst, flits, hops
	pkt.payload, pkt.injectAt, pkt.arrived = payload, r.m.k.Now(), 0
	pkt.seq = r.seq
	r.seq++
	key := uint64(src)<<32 | uint64(dst)
	pair := r.pairs[key]
	if pair == nil {
		pair = &deflPair{}
		r.pairs[key] = pair
	}
	pkt.pair, pkt.pairSeq = pair, pair.nextInject
	pair.nextInject++
	nd := &r.nodes[src]
	for i := 0; i < flits; i++ {
		nd.injQ = append(nd.injQ, r.newFlit(pkt, i))
	}
	r.addStaged(src, flits)
	r.flits += flits
	if occ := nd.localLen(); occ > r.m.peakVC {
		r.m.peakVC = occ
	}
	r.injected()
	return hops
}

// tick advances the whole network by one cycle, or proves the cycle idle
// and skips ahead.
func (r *deflRouter) tick() {
	now := r.m.k.Now()
	if r.frozen(now) {
		return
	}
	progressed := false
	r.injGated = false
	for n, v := r.visit(); n >= 0; n, v = v.next() {
		if r.tickNode(n, now) {
			progressed = true
		}
	}
	// Nothing moved, so no arrival was due and every arbitrable local
	// queue is empty (a node with a local flit always finds a free
	// output): every staged flit is in flight on a link — or was injected
	// this very cycle and gated to its first arbitration next cycle, which
	// caps the skip horizon at now+1.
	horizon := int64(math.MaxInt64)
	if r.injGated {
		horizon = now + 1
	}
	r.settle(now, progressed, horizon)
}

// tickNode runs one node's cycle: gather this cycle's candidates, rank
// them oldest-first, and place every one — ejection, productive port,
// deflection, or (for at most one) the side buffer. Reports whether any
// flit moved.
func (r *deflRouter) tickNode(n int, now int64) bool {
	nd, fn := &r.nodes[n], &r.fn[n]
	cands := r.cands[:0]

	// Due link arrivals: at most one per input port per cycle (stamps in
	// a ring are strictly increasing and every due front is consumed the
	// tick it lands, so the front is the only candidate).
	for p := range fn.arr {
		if q := &fn.arr[p]; q.due(now) {
			cands = append(cands, deflCand{q.front().v, p})
			q.pop()
		}
	}
	removed := len(cands) // flits leaving this node (adjusted below)

	// The local candidate: the older of the injection-backlog head (the
	// backlog is appended in priority order, so the head is the oldest)
	// and the oldest side-buffered flit. Peeked, not popped — it leaves
	// its queue only if it wins an output this cycle. A flit injected
	// this very cycle is gated to next tick: whether the injecting event
	// ran before or after this cycle's tick, its first hop leaves at
	// injectAt+1, keeping latency a pure function of the schedule rather
	// than of same-cycle event ordering.
	var local *deflFlit
	localSrc := srcInj
	if nd.injHead < len(nd.injQ) {
		if f := nd.injQ[nd.injHead]; f.pkt.injectAt < now {
			local = f
		} else {
			r.injGated = true
		}
	}
	for i, f := range nd.sideQ {
		if local == nil || f.before(local) {
			local, localSrc = f, srcSide
			r.sideIdx = i
		}
	}
	if local != nil {
		// The local candidate leaves the node only if it wins an output;
		// takeLocal's call sites bump removed when it does.
		cands = append(cands, deflCand{local, localSrc})
	}
	if len(cands) == 0 {
		return false
	}

	// Oldest-first ranking (insertion sort: at most in-degree+1 entries,
	// and the order is strict so the result is unique).
	for i := 1; i < len(cands); i++ {
		c := cands[i]
		j := i
		for j > 0 && c.f.before(cands[j-1].f) {
			cands[j] = cands[j-1]
			j--
		}
		cands[j] = c
	}

	for p := range r.portTaken {
		r.portTaken[p] = false
	}
	ejected := false
	progressed := false
	for _, c := range cands {
		f := c.f
		want := -1 // -1: this flit wants ejection (or lost it this cycle)
		if f.pkt.dst == n {
			if !ejected {
				ejected = true
				if c.src < 0 {
					r.takeLocal(nd, c.src)
					removed++
				}
				r.ejectFlit(n, f, now)
				progressed = true
				continue
			}
		} else {
			want, _ = r.m.topo.NextPort(n, f.pkt.dst)
		}
		out := -1
		if want >= 0 && !r.portTaken[want] {
			out = want
		} else {
			// Deflect: the lowest-numbered free output. The detour is
			// not charged here — deflected waste is the flit's actual
			// hops beyond its minimal route, settled at ejection.
			for p := 0; p < r.ports; p++ {
				if fn.downTo[p] >= 0 && !r.portTaken[p] {
					out = p
					break
				}
			}
		}
		if out >= 0 {
			r.portTaken[out] = true
			if c.src < 0 {
				r.takeLocal(nd, c.src)
				removed++
			}
			f.hops++
			d := fn.downTo[out]
			r.fn[d].arr[fn.downIn[out]].push(now+r.m.cfg.LinkLatency, f)
			r.addStaged(d, 1)
			r.m.linkBusy[n][out]++
			progressed = true
			continue
		}
		// Every output (and the ejection slot, if wanted) is taken: park
		// in the side buffer. Only an arrival can land here — the local
		// candidate is still in its queue and simply stays — and the
		// in-degree <= out-degree symmetry means at most one arrival per
		// cycle does. The flit changed state (link to buffer), so the
		// cycle made progress and the next tick re-arbitrates it.
		if c.src >= 0 {
			nd.sideQ = append(nd.sideQ, f)
			if occ := nd.localLen(); occ > r.m.peakVC {
				r.m.peakVC = occ
			}
			removed-- // it stayed at this node after all
			progressed = true
		}
	}
	if removed > 0 {
		r.subStaged(n, removed)
	}
	return progressed
}

// takeLocal removes the winning local candidate from its queue; arrivals
// (src >= 0) were already popped from their ring at gather and never
// reach here.
func (r *deflRouter) takeLocal(nd *deflNode, src int) {
	if src == srcInj {
		nd.injQ[nd.injHead] = nil
		nd.injHead++
		if nd.injHead == len(nd.injQ) {
			nd.injQ = nd.injQ[:0] // drained: recycle the backing array
			nd.injHead = 0
		}
		return
	}
	last := len(nd.sideQ) - 1
	nd.sideQ[r.sideIdx] = nd.sideQ[last]
	nd.sideQ[last] = nil
	nd.sideQ = nd.sideQ[:last]
}

// ejectFlit takes a flit off the network at its destination, settles its
// deflected-hop waste, and hands the packet to in-order delivery when it
// was the last.
func (r *deflRouter) ejectFlit(n int, f *deflFlit, now int64) {
	pkt := f.pkt
	r.m.deflHops += uint64(f.hops - pkt.minHops)
	f.pkt = nil
	f.next = r.flitFree
	r.flitFree = f
	r.flits--
	pkt.arrived++
	if pkt.arrived == pkt.flits {
		r.deliver(n, pkt, now)
	}
}

// deliver completes a fully-ejected packet in channel order: if earlier
// packets of its (src, dst) channel are still in flight it parks on the
// channel's reorder buffer, otherwise it delivers now — and releases any
// parked successors its delivery unblocks, at the same cycle. Liveness is
// inductive: the channel's earliest undelivered packet is never parked,
// so its flits are on the fabric and the livelock-free tick delivers it.
func (r *deflRouter) deliver(n int, pkt *deflPkt, now int64) {
	pair := pkt.pair
	if pkt.pairSeq != pair.nextDeliver {
		pp := &pair.pending
		for *pp != nil && (*pp).pairSeq < pkt.pairSeq {
			pp = &(*pp).next
		}
		pkt.next = *pp
		*pp = pkt
		return
	}
	for {
		pair.nextDeliver++
		r.retire(n, pkt.payload, pkt.injectAt, now)
		pkt.payload, pkt.pair = nil, nil
		pkt.next = r.pktFree
		r.pktFree = pkt
		if pair.pending == nil || pair.pending.pairSeq != pair.nextDeliver {
			return
		}
		pkt = pair.pending
		pair.pending = pkt.next
	}
}
