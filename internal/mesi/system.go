// Package mesi implements the paper's baseline: a blocking directory-based
// MESI protocol with an inclusive shared L2, as shipped with the Wisconsin
// GEMS simulator and modified for non-blocking writes (§3.3, §4.2), plus
// the MMemL1 variant ("Memory Controller to L1 Transfer" for MESI).
//
// The package is a state machine plus a message vocabulary over the
// internal/coher substrate: coher owns tile registration, transport and
// traffic bookkeeping, the store buffer, the pending-transaction tables
// and the drain gates; this package owns the MESI states, the directory,
// and the handlers.
//
// Protocol shape reproduced here:
//   - line-granularity coherence, fetch-on-write everywhere;
//   - a blocking directory at the home L2 slice: requests to a line with a
//     transaction in flight are NACKed and retried;
//   - every transaction ends with a "directory unblock" control message
//     from the requesting L1 (the 65.3% of MESI overhead in §5.2.4);
//   - E state with silent E->M upgrade; S->M Upgrade requests;
//   - clean replacement notices (overhead traffic) and PutM writebacks;
//   - inclusive L2: evicting an L2 line recalls/invalidates L1 copies;
//   - L2->memory writebacks always move the full 64-byte line.
//
// MMemL1 exploits the blocking directory: on an L2 miss the memory
// controller sends data straight to the requesting L1; loads forward it to
// the L2 as a combined unblock+data message (profiled as load traffic),
// and stores never forward it at all, since the pending writeback would
// overwrite it (§3.3).
package mesi

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/coher"
	"repro/internal/dram"
	"repro/internal/memsys"
)

// Options selects the MESI variant. Name overrides the reported
// configuration name (composed registry specs); empty derives the
// canonical name from the option set.
type Options struct {
	Name    string
	MemToL1 bool // MMemL1
}

// MaxCores is the most cores a MESI system serves: the directory keeps
// one sharer bit per core in a uint64. Cores map one per tile from tile
// 0, so larger meshes are fine as long as at most MaxCores of their tiles
// run a core.
const MaxCores = 64

// System is a complete MESI memory system over the coher substrate.
type System struct {
	coher.Substrate
	opt Options
	l1s []*l1Cache
	l2s []*l2Slice

	mcOps     coher.Pool[mcOp]
	mcIssueFn func(any) // s.mcIssue, bound once
}

// New builds the protocol engine and registers its tiles on the mesh.
func New(env *memsys.Env, opt Options) *System {
	s := &System{Substrate: coher.NewSubstrate(env), opt: opt}
	s.mcIssueFn = s.mcIssue
	n := env.Cfg.Tiles
	s.l1s = make([]*l1Cache, n)
	s.l2s = make([]*l2Slice, n)
	for t := 0; t < n; t++ {
		s.l1s[t] = newL1(s, t)
		s.l2s[t] = newL2(s, t)
	}
	coher.RegisterTiles(env, s)
	return s
}

// Name implements memsys.Protocol.
func (s *System) Name() string {
	if s.opt.Name != "" {
		return s.opt.Name
	}
	if s.opt.MemToL1 {
		return "MMemL1"
	}
	return "MESI"
}

// checkCore fails loudly for a core the directory's sharer vector cannot
// name (core.planMatrix rejects such runs up front).
func checkCore(core int) {
	if core >= MaxCores {
		panic(fmt.Sprintf("mesi: core %d beyond the directory's %d sharer bits", core, MaxCores))
	}
}

// Load implements memsys.Protocol.
func (s *System) Load(core int, addr uint32, done func(uint32, memsys.Sample)) {
	checkCore(core)
	s.l1s[core].load(addr, done)
}

// Store implements memsys.Protocol.
func (s *System) Store(core int, addr uint32, val uint32) bool {
	checkCore(core)
	return s.l1s[core].storePush(addr, val)
}

// SetStoreUnstall implements memsys.Protocol.
func (s *System) SetStoreUnstall(core int, fn func()) { s.l1s[core].storeUnstall = fn }

// Drain implements memsys.Protocol.
func (s *System) Drain(core int, done func()) { s.l1s[core].drain(done) }

// AtBarrier implements memsys.Protocol. MESI needs no global barrier
// action: invalidations keep caches coherent eagerly.
func (s *System) AtBarrier(written []uint8) {}

// CheckInvariants verifies, at quiescence, that the system is coherent:
// at most one owner per line, inclusive L2 residency for every L1 line,
// and no leftover transactions. Tests call it after Run.
func (s *System) CheckInvariants() error {
	for t, sl := range s.l2s {
		for i := range sl.dir {
			if sl.dir[i].busy != nil {
				return fmt.Errorf("mesi: tile %d line %#x still busy", t, i*len(s.l2s)+t)
			}
		}
	}
	var err error
	for t, l1 := range s.l1s {
		if l1.mshrs.Len() != 0 {
			return fmt.Errorf("mesi: tile %d has %d leftover MSHRs", t, l1.mshrs.Len())
		}
		if l1.wbBuf.Len() != 0 {
			return fmt.Errorf("mesi: tile %d has %d leftover victim-buffer entries", t, l1.wbBuf.Len())
		}
		tile := t
		l1.c.ForEach(func(ln *cache.Line) {
			if err != nil {
				return
			}
			home := s.l2s[s.Env.Cfg.HomeTile(ln.Tag)]
			e := home.lookup(ln.Tag)
			if home.c.Lookup(ln.Tag) == nil || e == nil {
				err = fmt.Errorf("mesi: inclusivity violation: tile %d holds line %#x absent from L2", tile, ln.Tag)
				return
			}
			switch ln.State {
			case stE, stM:
				if int(e.owner) != tile {
					err = fmt.Errorf("mesi: line %#x held %d-state at tile %d but directory owner is %d",
						ln.Tag, ln.State, tile, e.owner)
				}
			case stS:
				if e.sharers&(1<<tile) == 0 && int(e.owner) != tile {
					err = fmt.Errorf("mesi: line %#x shared at tile %d but not in sharer list", ln.Tag, tile)
				}
			}
		})
	}
	return err
}

// l2HasWord reports whether the home L2 currently holds valid data for a
// word (Figure 4.3's "address present in L2?" check at the MC).
func (s *System) l2HasWord(addr uint32) bool {
	line := memsys.LineOf(addr)
	sl := s.l2s[s.Env.Cfg.HomeTile(line)]
	l := sl.c.Lookup(line)
	if l == nil {
		return false
	}
	e := sl.lookup(line)
	return e != nil && e.hasData
}

// --- memory controller ---

// mcOp is one memory-controller access in flight: the MC latency, then
// the DRAM burst. Records are free-listed per system, and each binds its
// burst-completion callback once, when first made, so an access schedules
// no closure.
type mcOp struct {
	s     *System
	tile  int
	read  *msgMemRead // a line read, or
	wb    *msgMemWB   // a full-line writeback
	tAtMC int64
	req   dram.Request
	done  func(int64)
}

// startMC queues op's DRAM access one MC latency from now.
func (s *System) startMC(tile int, read *msgMemRead, wb *msgMemWB) {
	op := s.mcOps.Get()
	if op.done == nil {
		op.s, op.done = s, op.finish
	}
	op.tile, op.read, op.wb, op.tAtMC = tile, read, wb, s.Env.K.Now()
	s.Env.K.AtArg(op.tAtMC+s.Env.Cfg.MCLatency, s.mcIssueFn, op)
}

// handleMemRead services a line read at an MC tile: DRAM timing via the
// channel model, values from the backing store, fresh memory-level waste
// instances for every word shipped.
func (s *System) handleMemRead(tile int, m *msgMemRead) { s.startMC(tile, m, nil) }

// handleMemWB writes a full line back to DRAM (MESI always writes whole
// lines; partial-write support is a DeNovo optimization).
func (s *System) handleMemWB(tile int, m *msgMemWB) { s.startMC(tile, nil, m) }

// mcIssue submits an MC access to its DRAM channel once the MC latency
// has passed; a writeback commits its words to the backing store first.
func (s *System) mcIssue(arg any) {
	op := arg.(*mcOp)
	env := s.Env
	var line uint32
	if m := op.wb; m != nil {
		line = m.line
		for w := 0; w < lineWords; w++ {
			if m.wmask&(1<<w) != 0 {
				env.MemWrite(memsys.AddrOf(m.line, w), m.data[w])
			}
		}
	} else {
		line = op.read.line
	}
	op.req = dram.Request{Addr: line << memsys.LineShift, Write: op.wb != nil, Done: op.done}
	env.Chans[env.Cfg.Channel(line)].Submit(&op.req)
}

// finish completes an MC access when its DRAM burst ends: a read ships
// the line to the home L2 (or, under MMemL1, straight to the requesting
// L1). The record goes back on the free list.
func (op *mcOp) finish(finish int64) {
	s, tile, m := op.s, op.tile, op.read
	tAtMC := op.tAtMC
	op.read, op.wb = nil, nil
	s.mcOps.Put(op)
	if m == nil {
		return
	}
	env := s.Env
	var data [lineWords]uint32
	var minst [lineWords]uint64
	for w := 0; w < lineWords; w++ {
		a := memsys.AddrOf(m.line, w)
		data[w] = env.MemRead(a)
		minst[w] = env.Prof.MemFetch(a, s.l2HasWord(a))
	}
	if m.direct {
		// MMemL1: straight to the requesting L1.
		hops := s.CtlHops(m.class, memsys.BRespCtl, tile, m.requestor)
		s.SendData(tile, m.requestor, lineWords, &msgData{
			line: m.line, state: m.grant, data: data, minst: minst,
			fromMem: true, tIssue: m.tIssue, tAtMC: tAtMC, tDram: finish,
			hops: hops, class: m.class,
		})
		return
	}
	hops := s.CtlHops(m.class, memsys.BRespCtl, tile, m.home)
	s.SendData(tile, m.home, lineWords, &msgMemData{
		line: m.line, data: data, minst: minst, class: m.class,
		grant: m.grant, req: m.requestor,
		tIssue: m.tIssue, tAtMC: tAtMC, tDram: finish, hops: hops,
	})
}
