// Package denovo implements the DeNovo hardware-software coherence
// protocol of Choi et al. and the thesis' optimization stack (§2, §3):
//
//   - word-level coherence: L1 words are Invalid, Valid or Registered;
//     the shared L2 doubles as the registry, tracking per-word ownership;
//   - no sharer lists, no invalidation broadcasts, no transient states:
//     data-race-free software plus self-invalidation at barriers replace
//     them (the written regions of the finished phase are invalidated in
//     every L1, sparing registered words);
//   - write-validate L1: stores complete locally and register
//     asynchronously through a 32-entry write-combining table with a
//     10,000-cycle timeout (§4.2);
//   - optional L2 write-validate + dirty-words-only writebacks
//     (DValidateL2), memory-controller-to-L1 transfer (DMemL1), Flex
//     communication-granularity responses on-chip (DFlexL1) and at the MC
//     (DFlexL2, with conventional line-granularity DRAM: dropped words
//     are the Excess waste of Figure 5.3c), L2 response bypass (DBypL2)
//     and Bloom-filter-guarded L2 request bypass (DBypFull, §4.4).
//
// Like internal/mesi, the package is a state machine plus a message
// vocabulary over the internal/coher substrate, which owns transport,
// dispatch, the pending-transaction tables, the write-combining table
// bookkeeping and the drain gates.
package denovo

import (
	"fmt"
	"slices"

	"repro/internal/cache"
	"repro/internal/coher"
	"repro/internal/dram"
	"repro/internal/memsys"
)

// Options compose the protocol variants of §3.2. The fields are the
// orthogonal optimization knobs the registry in internal/core exposes as
// composable option tokens.
type Options struct {
	Name       string
	FlexL1     bool // Flex for on-chip responses
	ValidateL2 bool // L2 write-validate + dirty-words-only L2->Mem WB
	MemToL1    bool // MC sends data to L1 and L2 in parallel
	FlexL2     bool // Flex applied at the memory controller
	BypassResp bool // L2 response bypass for annotated regions
	BypassReq  bool // L2 request bypass (Bloom filters)

	// PredictBypass replaces the software bypass annotations with a
	// hardware counter-based reuse predictor at each L2 slice — the
	// hardware-only alternative the paper's related-work section names as
	// follow-up study (see predictor.go). Extension beyond the paper's
	// nine configurations.
	PredictBypass bool
}

// Variants returns the paper's DeNovo configurations in figure order.
func Variants() []Options {
	return []Options{
		{Name: "DeNovo"},
		{Name: "DFlexL1", FlexL1: true},
		{Name: "DValidateL2", ValidateL2: true},
		{Name: "DMemL1", ValidateL2: true, MemToL1: true},
		{Name: "DFlexL2", ValidateL2: true, MemToL1: true, FlexL1: true, FlexL2: true},
		{Name: "DBypL2", ValidateL2: true, MemToL1: true, FlexL1: true, FlexL2: true, BypassResp: true},
		{Name: "DBypFull", ValidateL2: true, MemToL1: true, FlexL1: true, FlexL2: true, BypassResp: true, BypassReq: true},
	}
}

// ExtensionVariants returns configurations beyond the paper's set:
// DBypHW swaps the software bypass annotations of DBypL2 for the
// hardware reuse predictor.
func ExtensionVariants() []Options {
	return []Options{
		{Name: "DBypHW", ValidateL2: true, MemToL1: true, FlexL1: true, FlexL2: true,
			PredictBypass: true},
	}
}

// VariantByName returns the named configuration (paper set first, then
// extensions) and whether it exists.
func VariantByName(name string) (Options, bool) {
	for _, v := range Variants() {
		if v.Name == name {
			return v, true
		}
	}
	for _, v := range ExtensionVariants() {
		if v.Name == name {
			return v, true
		}
	}
	return Options{}, false
}

// System is a complete DeNovo memory system over the coher substrate.
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
	if opt.Name == "" {
		opt.Name = "DeNovo"
	}
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
func (s *System) Name() string { return s.opt.Name }

// Load implements memsys.Protocol.
func (s *System) Load(core int, addr uint32, done func(uint32, memsys.Sample)) {
	s.l1s[core].load(addr, done)
}

// Store implements memsys.Protocol. DeNovo stores are write-validate:
// they complete locally and never stall the core (§3.1).
func (s *System) Store(core int, addr uint32, val uint32) bool {
	s.l1s[core].store(addr, val)
	return true
}

// SetStoreUnstall implements memsys.Protocol (unused: stores never stall).
func (s *System) SetStoreUnstall(core int, fn func()) {}

// Drain implements memsys.Protocol: flush the write-combining table and
// wait for all registrations and writebacks to be acknowledged.
func (s *System) Drain(core int, done func()) { s.l1s[core].drain(done) }

// AtBarrier implements memsys.Protocol: self-invalidate the regions
// written during the finished phase in every L1 and clear the L1 Bloom
// filter copies (§2, §4.4).
func (s *System) AtBarrier(written []uint8) {
	for _, l1 := range s.l1s {
		l1.selfInvalidate(written)
		if s.opt.BypassReq {
			l1.blooms.ClearAll()
		}
	}
}

// l2HasWord implements the Figure 4.3 "address present in L2?" check.
func (s *System) l2HasWord(addr uint32) bool {
	line := memsys.LineOf(addr)
	sl := s.l2s[s.Env.Cfg.HomeTile(line)]
	ln := sl.c.Lookup(line)
	if ln == nil {
		return false
	}
	return ln.WState[memsys.WordIndex(addr)]&l2StateMask == l2Valid
}

// msgMemWBPartial writes a set of dirty words back to DRAM. With
// ValidateL2 only the dirty words travel (partial DRAM writes, §3.1);
// the baseline writes the full line.
type msgMemWBPartial struct {
	line uint32
	mask uint16
	vals [lineWords]uint32
}

// rowOf returns the DRAM row identifier of a line (for the L2 Flex
// same-row constraint, §3.1).
func (s *System) rowOf(line uint32) uint32 {
	return (line << memsys.LineShift) / s.Env.Cfg.DRAM.RowBytes
}

// mcOp is one memory-controller access in flight: the MC latency, then
// the DRAM bursts. A read fetches one or more lines of a row; a
// writeback commits dirty words. Records are free-listed per system, and
// each binds its burst-completion callback once, when first made, so an
// access schedules no closure.
type mcOp struct {
	s    *System
	tile int
	read *dvnMemRead      // a fetch, or
	wb   *msgMemWBPartial // a writeback

	lines     []uint32 // lines to fetch, critical line first
	tAtMC     int64
	finish    int64 // latest burst completion so far
	remaining int   // bursts still outstanding
	reqs      []dram.Request
	done      func(int64)
}

// startMC queues an MC access one MC latency from now.
func (s *System) startMC(tile int, read *dvnMemRead, wb *msgMemWBPartial) *mcOp {
	op := s.mcOps.Get()
	if op.done == nil {
		op.s, op.done = s, op.burstDone
	}
	op.tile, op.read, op.wb, op.tAtMC = tile, read, wb, s.Env.K.Now()
	op.lines = op.lines[:0]
	s.Env.K.AtArg(op.tAtMC+s.Env.Cfg.MCLatency, s.mcIssueFn, op)
	return op
}

// handleMemRead services a fetch at an MC tile. It may read several lines
// from DRAM (Flex prefetch within one row), filters dirty on-chip words,
// applies the Flex communication region (dropping unsent words as Excess),
// and responds to the L1 and/or the home L2.
func (s *System) handleMemRead(tile int, m *dvnMemRead) {
	op := s.startMC(tile, m, nil)
	// Decide which lines to fetch: always the critical line; with Flex at
	// the MC, also other lines holding wanted words if they share the
	// critical line's DRAM row (row activation is expensive, §3.1).
	op.lines = append(op.lines, m.critLine)
	if m.flex {
		critRow := s.rowOf(m.critLine)
		for _, w := range m.wants {
			ln := memsys.LineOf(w)
			if !slices.Contains(op.lines, ln) && s.rowOf(ln) == critRow {
				op.lines = append(op.lines, ln)
			}
		}
	}
}

// handleMemWB commits dirty words to DRAM.
func (s *System) handleMemWB(tile int, m *msgMemWBPartial) { s.startMC(tile, nil, m) }

// mcIssue submits an MC access's DRAM bursts once the MC latency has
// passed. Every line of a fetch goes to the critical line's channel.
func (s *System) mcIssue(arg any) {
	op := arg.(*mcOp)
	env := s.Env
	if m := op.wb; m != nil {
		for w := 0; w < lineWords; w++ {
			if m.mask&(1<<w) != 0 {
				env.MemWrite(memsys.AddrOf(m.line, w), m.vals[w])
			}
		}
		op.remaining = 1
		op.reqs = append(op.reqs[:0], dram.Request{Addr: m.line << memsys.LineShift, Write: true, Done: op.done})
		env.Chans[env.Cfg.Channel(m.line)].Submit(&op.reqs[0])
		return
	}
	ch := env.Chans[env.Cfg.Channel(op.read.critLine)]
	op.remaining, op.finish = len(op.lines), 0
	op.reqs = op.reqs[:0]
	for _, ln := range op.lines {
		op.reqs = append(op.reqs, dram.Request{Addr: ln << memsys.LineShift, Done: op.done})
	}
	for i := range op.reqs { // submitted only once reqs has stopped growing
		ch.Submit(&op.reqs[i])
	}
}

// burstDone counts an access's completed bursts; the last one of a fetch
// assembles the responses. The record then goes back on the free list.
func (op *mcOp) burstDone(f int64) {
	if f > op.finish {
		op.finish = f
	}
	op.remaining--
	if op.remaining > 0 {
		return
	}
	if op.read != nil {
		op.s.memReadDone(op)
	}
	op.read, op.wb = nil, nil
	op.s.mcOps.Put(op)
}

// memReadDone assembles and sends the responses once DRAM delivers.
func (s *System) memReadDone(op *mcOp) {
	env := s.Env
	m, tile, lines := op.read, op.tile, op.lines
	tAtMC, tDram := op.tAtMC, op.finish

	// The wanted words of each fetched line, and the wanted words on
	// lines not fetched (denied).
	var wantBuf [8]uint16
	want := wantBuf[:0]
	for range lines {
		want = append(want, 0)
	}
	var denied []uint32
	for _, w := range m.wants {
		if i := slices.Index(lines, memsys.LineOf(w)); i >= 0 {
			want[i] |= 1 << memsys.WordIndex(w)
		} else {
			denied = append(denied, w)
		}
	}

	// Collected on the stack; the response keeps exactly sized copies.
	var wordBuf, valBuf [2 * lineWords]uint32
	var minstBuf [2 * lineWords]uint64
	words, vals, minsts := wordBuf[:0], valBuf[:0], minstBuf[:0]
	var fillBuf [8]*dvnL2Fill
	fillOrder := fillBuf[:0]

	for i, ln := range lines {
		var fill *dvnL2Fill
		if m.fillL2 {
			fill = &dvnL2Fill{line: ln, class: m.class, tAtMC: tAtMC, tDram: tDram}
			fillOrder = append(fillOrder, fill)
		}
		for w := 0; w < lineWords; w++ {
			a := memsys.AddrOf(ln, w)
			if ln == m.critLine && m.noReturn&(1<<w) != 0 {
				continue // dirty on-chip: memory's copy is stale
			}
			wanted := want[i]&(1<<w) != 0
			sendL1 := wanted && m.direct
			sendL2 := fill != nil && (!m.flex || wanted)
			if !sendL1 && !sendL2 {
				if m.flex {
					env.Prof.MemExcess(a) // fetched from DRAM, dropped here
				}
				continue
			}
			mi := env.Prof.MemFetch(a, s.l2HasWord(a))
			if sendL1 {
				words = append(words, a)
				vals = append(vals, env.MemRead(a))
				minsts = append(minsts, mi)
			}
			if sendL2 {
				fill.mask |= 1 << w
				fill.vals[w] = env.MemRead(a)
				fill.minsts[w] = mi
			}
		}
	}

	if m.direct {
		hops := s.CtlHops(m.class, memsys.BRespCtl, tile, m.requestor)
		s.SendData(tile, m.requestor, len(words), &dvnData{
			key: m.key, words: slices.Clone(words), vals: slices.Clone(vals), minsts: slices.Clone(minsts),
			fromMem: true, tAtMC: tAtMC, tDram: tDram, hops: hops,
		})
		if len(denied) > 0 {
			env.Traffic.Ctl(m.class, memsys.BRespCtl, 1, hops)
			s.Send(tile, m.requestor, 1, &dvnDeny{key: m.key, words: denied})
		}
	}
	for _, fill := range fillOrder {
		// Even an empty fill must be delivered: the home slice's fetch
		// entry pins the line until the fill lands.
		hops := s.CtlHops(m.class, memsys.BRespCtl, tile, m.home)
		fill.hops = hops
		s.SendData(tile, m.home, coher.Popcount16(fill.mask), fill)
	}
}

// CheckInvariants verifies protocol sanity at quiescence: every word
// registered at an L2 is registered at exactly the recorded owner, no
// in-flight transactions remain, and write-combining tables are empty.
func (s *System) CheckInvariants() error {
	for t, l1 := range s.l1s {
		if l1.mshrs.Len() != 0 {
			return fmt.Errorf("denovo: tile %d has %d leftover MSHRs", t, l1.mshrs.Len())
		}
		if l1.wc.Len() != 0 {
			return fmt.Errorf("denovo: tile %d has %d leftover WC entries", t, l1.wc.Len())
		}
		if l1.pendingRegs != 0 {
			return fmt.Errorf("denovo: tile %d has %d unacked registrations", t, l1.pendingRegs)
		}
		if l1.wbBuf.Len() != 0 {
			return fmt.Errorf("denovo: tile %d has %d leftover victim buffers", t, l1.wbBuf.Len())
		}
	}
	var err error
	for t, sl := range s.l2s {
		for i, f := range sl.flags {
			if f&(lineGated|lineEvicting) != 0 {
				return fmt.Errorf("denovo: slice %d line %#x left gated or evicting (flags %03b)",
					t, i*len(s.l2s)+t, f)
			}
		}
		var ferr error
		sl.foreign.Range(func(line uint32, f *uint8) {
			if *f&(lineGated|lineEvicting) != 0 && ferr == nil {
				ferr = fmt.Errorf("denovo: slice %d foreign line %#x left gated or evicting (flags %03b)", t, line, *f)
			}
		})
		if ferr != nil {
			return ferr
		}
	}
	// Registration consistency.
	for _, sl := range s.l2s {
		sl.c.ForEach(func(ln *cache.Line) {
			if err != nil {
				return
			}
			for w := 0; w < lineWords; w++ {
				if ln.WState[w]&l2StateMask != l2Registered {
					continue
				}
				owner := int(ln.Owner[w])
				ol := s.l1s[owner].c.Lookup(ln.Tag)
				if ol == nil || ol.WState[w] != wRegistered {
					err = fmt.Errorf("denovo: word %#x registered to %d who does not hold it",
						memsys.AddrOf(ln.Tag, w), owner)
					return
				}
			}
		})
	}
	return err
}
