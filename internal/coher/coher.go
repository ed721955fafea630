// Package coher is the protocol-agnostic coherence-controller substrate
// shared by the protocol families (internal/mesi, internal/denovo). A
// coherence protocol in this simulator is a set of per-tile controllers
// (an L1 per core, an L2 slice per tile, memory controllers at the MC
// tiles) exchanging messages over the mesh; everything about that shape
// that is not the protocol's state machine lives here:
//
//   - tile endpoint registration and message transport, with the paired
//     traffic accounting (every control flit charged to a class/bucket as
//     it is injected, §5.2);
//   - the per-message dispatch contract (Msg) that replaces the
//     hand-rolled system-level type switches;
//   - pending-transaction tables (MSHRs, victim buffers, fetch tables)
//     with the deterministic iteration helpers a reproducible simulation
//     needs;
//   - store-buffer and write-combining-table management (§4.2);
//   - NACK/retry-backoff handling and barrier drain gates;
//   - the per-word waste-attribution release hooks into memsys/waste.
//
// A protocol family built on this substrate is a state machine plus a
// message vocabulary: mesi and denovo define line/word states, message
// structs with Dispatch methods, and handlers; coher moves the bytes and
// keeps the books.
package coher

import (
	"fmt"

	"repro/internal/memsys"
)

// Msg is implemented by every protocol message: Dispatch routes the
// delivered payload to the right component (L1, L2 slice, MC) of the
// destination tile. S is the protocol's System type.
type Msg[S any] interface {
	Dispatch(s S, tile int)
}

// RegisterTiles registers every tile of the system on the mesh. Delivered
// payloads are routed through their Dispatch method, replacing the
// per-protocol dispatch switch.
func RegisterTiles[S any](env *memsys.Env, s S) {
	for t := 0; t < env.Cfg.Tiles; t++ {
		tile := t
		env.Mesh.Register(tile, func(p any) {
			m, ok := p.(Msg[S])
			if !ok {
				panic(fmt.Sprintf("coher: message %T does not dispatch to %T (tile %d)", p, s, tile))
			}
			m.Dispatch(s, tile)
		})
	}
}

// Substrate is the controller base a protocol's System embeds: the
// environment handle plus message transport with traffic accounting.
type Substrate struct {
	Env *memsys.Env
}

// NewSubstrate wraps an environment.
func NewSubstrate(env *memsys.Env) Substrate { return Substrate{Env: env} }

// Hops returns the route length between two tiles on the active topology.
func (s *Substrate) Hops(a, b int) int { return s.Env.Mesh.Hops(a, b) }

// Send pushes a payload of the given flit count into the mesh.
func (s *Substrate) Send(src, dst, flits int, payload any) {
	s.Env.Mesh.Send(src, dst, flits, payload)
}

// SendData sends a packet of one control flit plus the data flits needed
// for words data words. Data-word Used/Waste attribution is deferred via
// Traffic.Data/WBData at the call site; the header flit is charged
// separately (CtlHops or SendCtl).
func (s *Substrate) SendData(src, dst, words int, payload any) {
	s.Env.Mesh.Send(src, dst, 1+memsys.DataFlits(words), payload)
}

// CtlHops charges one control flit for a src->dst message to
// (class, bucket) and returns the hop count, for callers that embed the
// hop count in the payload before sending.
func (s *Substrate) CtlHops(class memsys.Class, bucket memsys.Bucket, src, dst int) int {
	hops := s.Env.Mesh.Hops(src, dst)
	s.Env.Traffic.Ctl(class, bucket, 1, hops)
	return hops
}

// SendCtl charges and sends a one-flit control message in one step and
// returns the hop count.
func (s *Substrate) SendCtl(class memsys.Class, bucket memsys.Bucket, src, dst int, payload any) int {
	hops := s.CtlHops(class, bucket, src, dst)
	s.Env.Mesh.Send(src, dst, 1, payload)
	return hops
}

// RetryAfter schedules fn after the configured retry backoff (used for
// resources busy with an in-flight transaction: victim buffers, pinned
// cache ways).
func (s *Substrate) RetryAfter(fn func()) {
	s.Env.K.After(s.Env.Cfg.RetryBackoff, fn)
}

// NackBackoff records a received NACK's control charge (from the NACKing
// tile) and schedules the retry after the backoff staggered by the
// receiver's tile id, so symmetric retries do not collide forever.
func (s *Substrate) NackBackoff(from, tile int, retry func()) {
	s.Env.Traffic.Ctl(memsys.ClassOVH, memsys.BOvhNack, 1, s.Env.Mesh.Hops(from, tile))
	s.Env.K.After(s.Env.Cfg.RetryBackoff+int64(tile), retry)
}

// SliceLines returns the length of an L2 slice's per-line state arrays:
// lines are interleaved across slices (line % Tiles is the home tile), so
// a slice homes at most ceil(footprint lines / Tiles) of them and a line's
// slot is SliceSlot(env, line). The arrays are sized by the footprint's
// line count, like env.Mem itself; the untouched tail costs only
// address space.
func SliceLines(env *memsys.Env) int {
	lines := (len(env.Mem) + memsys.WordsPerLine - 1) / memsys.WordsPerLine
	return (lines + env.Cfg.Tiles - 1) / env.Cfg.Tiles
}

// SliceSlot returns line's index in its home slice's per-line arrays.
func SliceSlot(env *memsys.Env, line uint32) uint32 { return line / uint32(env.Cfg.Tiles) }
