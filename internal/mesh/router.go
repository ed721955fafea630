package mesh

import "fmt"

// routerRegistry is the single source of truth for router models: kinds,
// inventory descriptions, and constructors all derive from it.
var routerRegistry = []struct {
	kind string
	desc string
	ctor func(*Mesh) router
}{
	{"ideal", "injection-time link reservation — the paper's wormhole approximation (default)",
		func(m *Mesh) router { return newIdealRouter(m) }},
	{"vc", "cycle-level wormhole router: per-port input VCs, credit flow control, round-robin allocation",
		func(m *Mesh) router { return newVCRouter(m) }},
	{"deflection", "cycle-level bufferless router: oldest-first arbitration, contention deflects instead of buffering",
		func(m *Mesh) router { return newDeflRouter(m) }},
}

// RouterKinds lists the registered router models in presentation order.
func RouterKinds() []string {
	kinds := make([]string, len(routerRegistry))
	for i, r := range routerRegistry {
		kinds[i] = r.kind
	}
	return kinds
}

// RouterDescription returns the one-line inventory description of a
// registered router kind (used by cmd/papertables and trafficsim -help). The
// empty string describes the default ("ideal"); an unregistered kind is
// an error — it used to return "" silently, which let a registry or
// inventory drift print an empty papertables row.
func RouterDescription(kind string) (string, error) {
	if kind == "" {
		kind = "ideal"
	}
	for _, r := range routerRegistry {
		if r.kind == kind {
			return r.desc, nil
		}
	}
	return "", fmt.Errorf("mesh: unknown router %q (have %v)", kind, RouterKinds())
}

// ValidRouter reports whether kind names a registered router model. The
// empty string selects the default ("ideal").
func ValidRouter(kind string) error {
	if _, err := newRouterCtor(kind); err != nil {
		return err
	}
	return nil
}

// newRouterCtor resolves a kind to its constructor ("" = "ideal").
func newRouterCtor(kind string) (func(*Mesh) router, error) {
	if kind == "" {
		kind = "ideal"
	}
	for _, r := range routerRegistry {
		if r.kind == kind {
			return r.ctor, nil
		}
	}
	return nil, fmt.Errorf("mesh: unknown router %q (have %v)", kind, RouterKinds())
}

// router is the forwarding-model contract the fabric programs against.
// inject consumes one packet of flits flits with src != dst, must
// eventually call Mesh.complete exactly once for it when the model says
// the packet arrives (recording the packet's latency in the congestion
// telemetry), and returns the route length in links (the fabric charges
// flits x hops to the traffic telemetry, identically under every model).
// Implementations must be deterministic: all state advances on kernel
// events only, so simulations are bit-identical at any engine worker
// count.
type router interface {
	kind() string
	inject(src, dst, flits int, payload any) int
}

// idealRouter is the paper's original wormhole approximation: the entire
// route is reserved link by link at injection time, so contention on hot
// links delays later packets, but there are no buffers, no credit stalls,
// and no allocation latency. It is the default and the reference model the
// golden figure suite pins.
type idealRouter struct {
	m *Mesh
	// linkFree[t][p] is the cycle at which tile t's outgoing link on port
	// p becomes free. Port meanings are topology-defined.
	linkFree [][]int64
}

func newIdealRouter(m *Mesh) *idealRouter {
	linkFree := make([][]int64, m.topo.Tiles())
	for i := range linkFree {
		linkFree[i] = make([]int64, m.topo.Ports())
	}
	return &idealRouter{m: m, linkFree: linkFree}
}

func (r *idealRouter) kind() string { return "ideal" }

func (r *idealRouter) inject(src, dst, flits int, payload any) int {
	m := r.m
	hops := 0
	t0 := m.k.Now() // header ready to leave current router
	t := t0
	cur := src
	for cur != dst {
		port, next := m.topo.NextPort(cur, dst)
		start := t
		if free := r.linkFree[cur][port]; free > start {
			start = free
		}
		r.linkFree[cur][port] = start + int64(flits) // serialization
		m.linkBusy[cur][port] += int64(flits)
		t = start + m.cfg.LinkLatency // header at next router
		cur = next
		hops++
	}
	// The tail flit arrives flits-1 cycles after the header.
	m.complete(dst, payload, t0, t+int64(flits-1))
	return hops
}
