package mesh

// The cycle-level virtual-channel wormhole router (Config.Router = "vc").
//
// Every router has, per incoming link, VCs flit buffers of VCDepth entries
// each, managed with credit-based flow control: a flit may leave upstream
// only while the downstream buffer has a free slot, and the credit returns
// one link latency after the slot frees. Each cycle every router performs,
// in fixed tile/port order:
//
//   - VC allocation: a header flit at the front of an input VC (or the
//     source queue) claims a free downstream VC in its dateline class,
//     round-robin per output port;
//   - switch allocation: each output port (plus the ejection port) accepts
//     at most one flit per cycle, chosen round-robin over the (input port,
//     VC) candidates, and each input port supplies at most one flit per
//     cycle;
//   - link traversal: the winning flit reaches the downstream buffer
//     LinkLatency cycles later.
//
// Determinism: the whole network advances inside the kernel's recurring-
// tick slot, one tick per cycle while packets are in flight, and every
// allocation scan uses fixed iteration order plus per-port round-robin
// pointers. Two runs that inject the same packets at the same cycles
// therefore produce identical deliveries.
//
// Idle skip-ahead and O(active) ticks come from the cycle-fabric core
// (fabric.go). A tick that forwards nothing proves every staged flit
// blocked on a future buffered-flit arrival, a pending credit return, or
// (transitively) another blocked flit, so the router's horizon is its
// earliest pending credit. A node is staged while it holds a packet's
// streaming state (a source-queue head or an allocated input VC), so an
// uncontended packet keeps at most two nodes active — the stage it streams
// from and the stage allocated downstream — and crosses the fabric in
// O(hops) node visits. A bit set mid-tick by allocVC is behavior-neutral:
// the new stage's arrival ring is empty until forward pushes a
// future-stamped flit, so visiting it forwards nothing and moves no
// round-robin pointer.
//
// Allocation-free steady state: packets come from a free list, per-VC
// arrival rings are sized to VCDepth (credits bound occupancy), credit
// returns ride one router-wide ring drained at tick start (every credit
// takes exactly LinkLatency cycles, so pushes are time-ordered) instead of
// a kernel closure per flit, and the injection queues recycle their
// backing arrays. TestVCTickZeroAlloc pins zero allocations per steady-state
// tick.
//
// Deadlock freedom: routing is minimal and dimension-ordered, and the VCs
// are split into two dateline classes — packets start in class 0 and move
// to class 1 for the rest of the dimension after crossing a wraparound
// (dateline) link, so the ring and torus channel-dependency cycles are
// broken exactly as in the classic dateline scheme. Meshes never wrap and
// simply use class 0.

import (
	"fmt"
	"math"
	"math/bits"
)

const (
	defaultVCs     = 2
	defaultVCDepth = 4
)

// MaxVCs is the largest VC count the vc router can index: a credit return
// carries its VC in an int16 field, so VC indices run 0..math.MaxInt16.
const MaxVCs = math.MaxInt16 + 1

// vcPkt is one packet traveling the VC network. Packets are recycled
// through the router's free list once their tail flit ejects.
type vcPkt struct {
	dst, flits int
	payload    any
	injectAt   int64
	next       *vcPkt // free list link
}

// hopState tracks a packet streaming through one router stage: an input VC
// or the head of a source (injection) queue.
type hopState struct {
	pkt     *vcPkt
	id      int // candidate bit index at this node (inPort*vcs+vc; numIn*vcs = source)
	outPort int // output port at this node; topo.Ports() means ejection
	class   int // dateline VC class held at this node (0 or 1)
	axis    int // axis (port/2) of the hop that reached this node; -1 at source
	downVC  int // VC allocated at the downstream input port; -1 = none yet
	sent    int // flits this stage has forwarded
}

// credit is one in-flight credit return: the upstream output (node, port,
// vc) regains a buffer slot when the ring entry comes due.
type credit struct {
	node int32
	port int16
	vc   int16
}

type vcNode struct {
	injQ    []*vcPkt // pending source packets; injQ[injHead:] is live
	injHead int
	// stages holds the streaming state by candidate id: input VC
	// inPort*vcs+vc (whose buffered flits are the core's arrival ring of
	// the same index), then the source-queue head at id src.
	stages  []hopState
	src     int     // the source-queue stage's id: in-degree x VCs
	wrap    []bool  // per output port: wraparound (dateline-crossing) link
	credits [][]int // [output port][downstream vc]: free buffer slots
	outRR   []int   // switch-allocation round-robin pointer per output port
	vcRR    []int   // VC-allocation round-robin pointer per output port
	usedIn  []bool  // input port (src/VCs = the source queue) already supplied a flit this cycle
	// cand[out*words:(out+1)*words] has bit s.id set for every stage staged
	// toward output out (s.pkt != nil && s.outPort == out), so switch
	// allocation scans only live candidates; outs has bit out set while
	// any of those words is nonzero, so a tick skips idle outputs at once.
	cand []uint64
	outs uint64
}

type vcRouter struct {
	fabric[struct{}]
	vcs   int
	eject int // pseudo output port index = topo.Ports()
	words int // candidate-mask words per output port

	// Pending credit returns in time order (constant LinkLatency makes
	// pushes monotone). Drained at the start of every tick, exactly
	// matching per-credit kernel events, which would fire before the same
	// cycle's tick. Each input port frees at most one slot per cycle and
	// its credit stays LinkLatency cycles, so links x LinkLatency entries
	// always suffice.
	credQ ring[credit]

	nodes   []vcNode
	pktFree *vcPkt // recycled packets
}

func newVCRouter(m *Mesh) *vcRouter {
	vcs := m.cfg.VCs
	if vcs == 0 {
		vcs = defaultVCs
	}
	// The dateline scheme splits the VCs into two equal classes; an odd
	// count would silently short class 0 (e.g. VCs=3 -> classes of 1 and
	// 2), skewing fairness and the torus deadlock margin, and a count past
	// MaxVCs would wrap the credit records' VC index. User-facing paths
	// validate via memsys.Config.Validate; reaching here with a bad count
	// is a programmer error, same as an unknown topology in New.
	if vcs < 2 || vcs%2 != 0 {
		panic(fmt.Sprintf("mesh: VCs = %d; the dateline split needs an even count >= 2", m.cfg.VCs))
	}
	if vcs > MaxVCs {
		panic(fmt.Sprintf("mesh: VCs = %d; credit returns index at most %d VCs", vcs, MaxVCs))
	}
	depth := m.cfg.VCDepth
	if depth <= 0 {
		depth = defaultVCDepth
	}
	ports := m.topo.Ports()
	r := &vcRouter{fabric: newFabric[struct{}](m, vcs, depth), vcs: vcs, eject: ports,
		credQ: newRing[credit](len(m.topo.Links()) * int(m.cfg.LinkLatency))}
	r.nodes = make([]vcNode, len(r.fn))
	for i := range r.nodes {
		r.words = max(r.words, (len(r.fn[i].ups)*vcs+64)/64)
	}
	for i := range r.nodes {
		nd, fn := &r.nodes[i], &r.fn[i]
		nd.src = len(fn.ups) * vcs
		nd.stages = make([]hopState, nd.src+1)
		for id := range nd.stages {
			nd.stages[id].id = id
			nd.stages[id].downVC = -1
		}
		nd.wrap = make([]bool, ports)
		nd.credits = make([][]int, ports)
		for p, d := range fn.downTo {
			if d < 0 {
				continue
			}
			nd.wrap[p] = m.topo.Wraparound(i, p)
			nd.credits[p] = make([]int, vcs)
			for v := range nd.credits[p] {
				nd.credits[p][v] = depth
			}
		}
		nd.outRR = make([]int, ports+1)
		nd.vcRR = make([]int, ports)
		nd.usedIn = make([]bool, len(fn.ups)+1)
		nd.cand = make([]uint64, (ports+1)*r.words)
	}
	m.k.SetTicker(r.tick)
	return r
}

func (r *vcRouter) kind() string { return "vc" }

func (r *vcRouter) inject(src, dst, flits int, payload any) int {
	pkt := r.pktFree
	if pkt == nil {
		pkt = &vcPkt{}
	} else {
		r.pktFree = pkt.next
		pkt.next = nil
	}
	pkt.dst, pkt.flits, pkt.payload, pkt.injectAt = dst, flits, payload, r.m.k.Now()
	nd := &r.nodes[src]
	nd.injQ = append(nd.injQ, pkt)
	if len(nd.injQ)-nd.injHead == 1 {
		r.startInjection(src, nd)
	}
	r.injected()
	return r.m.topo.Hops(src, dst)
}

// startInjection stages the head of a source queue for switch allocation.
func (r *vcRouter) startInjection(n int, nd *vcNode) {
	s := &nd.stages[nd.src]
	s.pkt = nd.injQ[nd.injHead]
	s.sent, s.class, s.axis, s.downVC = 0, 0, -1, -1
	s.outPort, _ = r.m.topo.NextPort(n, s.pkt.dst)
	r.stage(n, nd, s)
}

// stage enters s as a switch-allocation candidate toward s.outPort; release
// undoes it.
func (r *vcRouter) stage(n int, nd *vcNode, s *hopState) {
	nd.cand[s.outPort*r.words+s.id>>6] |= 1 << uint(s.id&63)
	nd.outs |= 1 << uint(s.outPort)
	r.addStaged(n, 1)
}

// drainCredits applies every credit due by now.
func (r *vcRouter) drainCredits(now int64) {
	for r.credQ.due(now) {
		c := &r.credQ.front().v
		r.nodes[c.node].credits[c.port][c.vc]++
		r.credQ.pop()
	}
}

// tick advances the whole network by one cycle, or proves the current
// cycle (and possibly a run of following ones) idle and skips ahead.
func (r *vcRouter) tick() {
	now := r.m.k.Now()
	r.drainCredits(now)
	if r.frozen(now) {
		return
	}
	progressed := false
	for n, v := r.visit(); n >= 0; n, v = v.next() {
		nd := &r.nodes[n]
		clear(nd.usedIn)
		for out := 0; out <= r.eject; out++ {
			if nd.outs>>uint(out)&1 != 0 && r.serviceOutput(n, nd, &r.fn[n], out, now) {
				progressed = true
			}
		}
	}
	r.settle(now, progressed, r.credQ.nextAt())
}

// hasCand reports whether any stage is staged toward output out.
func (r *vcRouter) hasCand(nd *vcNode, out int) bool {
	for _, w := range nd.cand[out*r.words : (out+1)*r.words] {
		if w != 0 {
			return true
		}
	}
	return false
}

// serviceOutput runs VC + switch allocation for one output port: visit the
// staged (input port, VC) candidates in round-robin order from the port's
// pointer via its candidate bitmask and forward the first winner. It
// reports whether a flit moved. The mask holds exactly the stages with
// s.pkt != nil and s.outPort == out, so skipping unset bits examines the
// same eligible candidates, in the same order, as an exhaustive scan.
func (r *vcRouter) serviceOutput(n int, nd *vcNode, fn *fabricNode[struct{}], out int, now int64) bool {
	cand := nd.cand[out*r.words : (out+1)*r.words]
	// Round-robin order from first = pointer+1: ids from first up in its
	// word, the following words, wrapping to word 0, and finally the ids
	// below first in its word.
	first := nd.outRR[out] + 1
	if first == len(cand)<<6 {
		first = 0
	}
	fw, below := first>>6, uint64(1)<<uint(first&63)-1
	for k := 0; k <= len(cand); k++ {
		w := fw + k
		if w >= len(cand) {
			w -= len(cand)
		}
		word := cand[w]
		if k == 0 {
			word &^= below
		} else if k == len(cand) {
			word &= below
		}
		for ; word != 0; word &= word - 1 {
			id := w<<6 + bits.TrailingZeros64(word)
			if id != nd.src && !fn.arr[id].due(now) {
				continue // no buffered flit has landed yet
			}
			inPort := id / r.vcs // the source queue's id maps to pseudo input in-degree
			if nd.usedIn[inPort] {
				continue
			}
			s := &nd.stages[id]
			if out != r.eject {
				if s.downVC < 0 && !r.allocVC(fn, nd, s, out) {
					continue // no free downstream VC for this header
				}
				if nd.credits[out][s.downVC] == 0 {
					continue // downstream buffer full
				}
			}
			r.forward(n, nd, fn, out, inPort, s, now)
			nd.outRR[out] = id
			return true
		}
	}
	return false
}

// allocVC claims a free downstream input VC in the packet's dateline class
// and stages the packet's streaming state at the downstream node.
func (r *vcRouter) allocVC(fn *fabricNode[struct{}], nd *vcNode, s *hopState, out int) bool {
	class := s.class
	if r.m.topo.PortAxis(out) != s.axis {
		class = 0 // a new dimension starts a new dateline ring
	}
	if nd.wrap[out] {
		class = 1 // crossing the dateline moves to the upper VC class
	}
	half := r.vcs / 2
	lo, hi := 0, half
	if class == 1 {
		lo, hi = half, r.vcs
	}
	d := fn.downTo[out]
	down := &r.nodes[d]
	base := fn.downIn[out] * r.vcs
	width := hi - lo
	start := nd.vcRR[out]
	for k := 0; k < width; k++ {
		w := lo + (start+k)%width
		tgt := &down.stages[base+w]
		if tgt.pkt != nil {
			continue
		}
		// A free VC's arrival ring is empty: its previous packet released
		// it when the tail flit left.
		nd.vcRR[out] = (start + k + 1) % width
		s.downVC = w
		tgt.pkt = s.pkt
		tgt.sent = 0
		tgt.class = class
		tgt.axis = r.m.topo.PortAxis(out)
		tgt.downVC = -1
		if d == s.pkt.dst {
			tgt.outPort = r.eject
		} else {
			tgt.outPort, _ = r.m.topo.NextPort(d, s.pkt.dst)
		}
		r.stage(d, down, tgt)
		return true
	}
	return false
}

// forward moves one flit out of a stage: onto the link toward the
// downstream buffer, or off the network at the ejection port.
func (r *vcRouter) forward(n int, nd *vcNode, fn *fabricNode[struct{}], out, inPort int, s *hopState, now int64) {
	nd.usedIn[inPort] = true
	s.sent++
	tail := s.sent == s.pkt.flits
	if s.id != nd.src {
		// The flit frees a buffer slot; the credit reaches the upstream
		// router one link traversal later.
		fn.arr[s.id].pop()
		up := fn.ups[inPort]
		r.credQ.push(now+r.m.cfg.LinkLatency, credit{int32(up.node), int16(up.port), int16(s.id - inPort*r.vcs)})
	}
	if out == r.eject {
		if tail {
			pkt := s.pkt
			r.retire(n, pkt.payload, pkt.injectAt, now)
			r.release(n, nd, s)
			pkt.payload = nil
			pkt.next = r.pktFree
			r.pktFree = pkt
		}
		return
	}
	q := &r.fn[fn.downTo[out]].arr[fn.downIn[out]*r.vcs+s.downVC]
	q.push(now+r.m.cfg.LinkLatency, struct{}{})
	if q.n > r.m.peakVC {
		r.m.peakVC = q.n
	}
	nd.credits[out][s.downVC]--
	r.m.linkBusy[n][out]++
	if tail {
		r.release(n, nd, s)
	}
}

// release retires a packet's stage at this node once its tail has left,
// freeing the VC (or advancing the source queue) for the next packet.
func (r *vcRouter) release(n int, nd *vcNode, s *hopState) {
	i := s.outPort*r.words + s.id>>6
	nd.cand[i] &^= 1 << uint(s.id&63)
	if nd.cand[i] == 0 && !r.hasCand(nd, s.outPort) {
		nd.outs &^= 1 << uint(s.outPort)
	}
	r.subStaged(n, 1)
	s.pkt = nil
	if s.id != nd.src {
		s.downVC = -1
		return
	}
	nd.injQ[nd.injHead] = nil // drop the reference for the free list
	nd.injHead++
	if nd.injHead < len(nd.injQ) {
		r.startInjection(n, nd)
	} else {
		nd.injQ = nd.injQ[:0] // drained: recycle the backing array
		nd.injHead = 0
	}
}
