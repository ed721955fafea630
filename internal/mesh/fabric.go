package mesh

// The cycle-fabric core shared by the cycle-level routers ("vc" and
// "deflection"). Both routers advance the whole network inside the
// kernel's recurring-tick slot and differ only in what a node does with
// the flits it holds; everything else lives here, once:
//
//   - Link wiring: per node, the downstream (node, input port) of every
//     output port and the upstream (node, output port) of every input
//     port, built from Topology.Links().
//   - Arrival rings: per node, perPort time-stamped FIFOs per input port.
//     A flit sent at cycle t lands in the downstream ring stamped
//     t+LinkLatency, so an in-flight flit costs nothing per cycle.
//   - O(active) ticks: a tick visits only the nodes whose staged count is
//     positive, found through the active bitmask. The walk goes word by
//     word in ascending node order — the order a full scan would use, which
//     keeps cross-node coupling deterministic (work done at node i may
//     enable node j > i in the same cycle). Each word is read when the
//     walk reaches it; a bit set mid-tick in a word already read belongs
//     to a node whose only new state is a future-stamped arrival, so
//     visiting it or not is behavior-neutral.
//   - Idle skip-ahead: a tick that moves nothing proves the network
//     frozen until the earliest future arrival (or the router's own
//     horizon), so the next tick is armed with Kernel.TickSkipTo there
//     instead of next cycle. The kernel clamps the jump to its next
//     pending event (which may inject, resetting the proof), and
//     TickSkipTo's sequence accounting keeps equal-timestamp event order
//     bit-identical to per-cycle ticking. With no future arrival and no
//     horizon (a true deadlock) the tick falls back to per-cycle ticking,
//     exactly the per-cycle model, and the driver's livelock watchdog
//     reports it.
//
// Nothing here is called through an interface or a function value: each
// router embeds the core and drives it from its own tick, so the per-node
// and per-flit paths stay direct calls.

import (
	"math"
	"math/bits"
)

// slot is one ring entry: a value that becomes due at cycle at. v comes
// first so that a zero-size T adds no trailing padding.
type slot[T any] struct {
	v  T
	at int64
}

// ring is a fixed-capacity FIFO of time-stamped values. Every user pushes
// stamps in nondecreasing order, so the front is always the earliest
// entry, and sizes the ring to a proven occupancy bound, so the steady
// state allocates nothing; overflowing that bound is a model bug and
// panics.
type ring[T any] struct {
	s    []slot[T]
	head int
	n    int
}

func newRing[T any](capacity int) ring[T] { return ring[T]{s: make([]slot[T], capacity)} }

func (q *ring[T]) front() *slot[T] { return &q.s[q.head] }

// due reports whether the front entry has landed by cycle now.
func (q *ring[T]) due(now int64) bool { return q.n > 0 && q.s[q.head].at <= now }

// nextAt returns the front entry's stamp, or MaxInt64 if the ring is empty.
func (q *ring[T]) nextAt() int64 {
	if q.n == 0 {
		return math.MaxInt64
	}
	return q.s[q.head].at
}

func (q *ring[T]) pop() {
	q.s[q.head] = slot[T]{}
	q.head++
	if q.head == len(q.s) {
		q.head = 0
	}
	q.n--
}

func (q *ring[T]) push(at int64, v T) {
	if q.n == len(q.s) {
		panic("mesh: ring overflow")
	}
	i := q.head + q.n
	if i >= len(q.s) {
		i -= len(q.s)
	}
	q.s[i] = slot[T]{v, at}
	q.n++
}

type linkEnd struct{ node, port int }

// fabricNode is the core's per-node state.
type fabricNode[T any] struct {
	downTo []int     // downstream node per output port; -1 = no link
	downIn []int     // downstream input-port index per output port
	ups    []linkEnd // upstream (node, output port) feeding each input port
	arr    []ring[T] // arrival rings: [inPort*perPort + k]
}

// fabric is the cycle-fabric core a cycle-level router embeds; T is the
// value its arrival rings carry.
type fabric[T any] struct {
	m  *Mesh
	fn []fabricNode[T]

	// staged[n] is the work the router holds at node n, and active has
	// bit n set exactly while staged[n] > 0; addStaged and subStaged are
	// the only writers of both.
	staged []int
	active []uint64

	inFlight int // packets injected and not yet retired

	// wake is the cycle before which nothing staged can make progress (set
	// by a no-progress tick; 0 = the next tick must do a full visit).
	wake int64

	// tickVisits counts nodes visited by ticks since construction — the
	// work counter behind the O(active) tests.
	tickVisits uint64
}

// newFabric wires the topology's links and gives every input port perPort
// arrival rings of capacity depth.
func newFabric[T any](m *Mesh, perPort, depth int) fabric[T] {
	ports := m.topo.Ports()
	f := fabric[T]{m: m, fn: make([]fabricNode[T], m.topo.Tiles())}
	f.staged = make([]int, len(f.fn))
	f.active = make([]uint64, (len(f.fn)+63)/64)
	for i := range f.fn {
		nd := &f.fn[i]
		nd.downTo = make([]int, ports)
		for p := range nd.downTo {
			nd.downTo[p] = -1
		}
		nd.downIn = make([]int, ports)
	}
	for _, l := range m.topo.Links() {
		to, from := &f.fn[l.To], &f.fn[l.From]
		from.downTo[l.Port] = l.To
		from.downIn[l.Port] = len(to.ups)
		to.ups = append(to.ups, linkEnd{l.From, l.Port})
		for k := 0; k < perPort; k++ {
			to.arr = append(to.arr, newRing[T](depth))
		}
	}
	return f
}

// addStaged and subStaged move node n's staged count by k and keep its
// active bit in step.
func (f *fabric[T]) addStaged(n, k int) {
	if f.staged[n] == 0 {
		f.active[n>>6] |= 1 << uint(n&63)
	}
	f.staged[n] += k
}

func (f *fabric[T]) subStaged(n, k int) {
	f.staged[n] -= k
	if f.staged[n] == 0 {
		f.active[n>>6] &^= 1 << uint(n&63)
	}
}

// injected accounts a newly injected packet: a fresh packet invalidates any
// frozen-state proof, and an idle network starts ticking next cycle.
func (f *fabric[T]) injected() {
	f.inFlight++
	f.wake = 0
	if !f.m.k.TickArmed() {
		f.m.k.TickNext()
	}
}

// retire hands a packet that has fully arrived at node n to the mesh for
// delivery at cycle now.
func (f *fabric[T]) retire(n int, payload any, injectAt, now int64) {
	f.m.complete(n, payload, injectAt, now)
	f.inFlight--
}

// frozen reports whether cycle now lies inside a proven-frozen window (the
// kernel pulled the tick early for an event that did not inject); if so it
// re-arms the tick at the window's end and the tick must do nothing else.
func (f *fabric[T]) frozen(now int64) bool {
	if now < f.wake {
		f.m.k.TickSkipTo(f.wake)
		return true
	}
	return false
}

// settle arms the next tick once a tick's visit is done: next cycle after
// progress, otherwise the earliest future arrival or the router's own
// horizon (MaxInt64 = none), whichever comes first. A drained network
// leaves the tick unarmed until the next inject.
func (f *fabric[T]) settle(now int64, progressed bool, horizon int64) {
	if f.inFlight == 0 {
		return
	}
	if progressed {
		f.wake = 0
		f.m.k.TickNext()
		return
	}
	wake := min(f.nextArrival(now), horizon)
	if wake == math.MaxInt64 {
		f.wake = 0
		f.m.k.TickNext()
		return
	}
	f.wake = wake
	f.m.k.TickSkipTo(wake)
}

// nextArrival returns the earliest strictly-future arrival stamp on the
// active nodes, or MaxInt64 if none. Arrivals already due (a flit that
// landed but is blocked) don't bound the horizon: whatever unblocks them
// is another arrival or a router horizon, accounted separately.
func (f *fabric[T]) nextArrival(now int64) int64 {
	earliest := int64(math.MaxInt64)
	for w, word := range f.active {
		for ; word != 0; word &= word - 1 {
			nd := &f.fn[w<<6+bits.TrailingZeros64(word)]
			for i := range nd.arr {
				if t := nd.arr[i].nextAt(); t > now && t < earliest {
					earliest = t
				}
			}
		}
	}
	return earliest
}

// visit starts one tick's ascending walk over the active nodes and
// returns its first node (-1 if none) and the walk's state. Callers loop
//
//	for n, v := r.visit(); n >= 0; n, v = v.next() { ... }
func (f *fabric[T]) visit() (int, visit[T]) { return visit[T]{f: f, w: -1}.next() }

// visit is a walk over the active bitmask in ascending node order, passed
// by value so the compiler keeps it in registers.
type visit[T any] struct {
	f    *fabric[T]
	w    int
	word uint64 // the unvisited bits of active[w], read when the walk reached it
}

// next returns the walk's next active node (-1 once it is done) and the
// advanced walk. Each word's nodes are counted into tickVisits as the word
// is read.
func (v visit[T]) next() (int, visit[T]) {
	for v.word == 0 {
		if v.w+1 >= len(v.f.active) {
			return -1, v
		}
		v.w++
		v.word = v.f.active[v.w]
		v.f.tickVisits += uint64(bits.OnesCount64(v.word))
	}
	n := v.w<<6 + bits.TrailingZeros64(v.word)
	v.word &= v.word - 1
	return n, v
}
