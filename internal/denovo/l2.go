package denovo

import (
	"fmt"
	"slices"

	"repro/internal/bloom"
	"repro/internal/cache"
	"repro/internal/coher"
	"repro/internal/memsys"
)

// l2Fetch tracks one in-flight memory fetch for a line. Requests that
// cannot be satisfied while the fetch is in flight are queued and
// re-dispatched once the fill lands.
type l2Fetch struct {
	line   uint32
	retry  []*dvnLoadReq
	tAtMC  int64
	tDram  int64
	filled bool
}

// memStamp carries DRAM timing to re-dispatched requests so their loads
// still sample as memory time in Figure 5.2.
type memStamp struct {
	tAtMC, tDram int64
}

// Per-line flags: one byte per line a slice homes (indexed by
// coher.SliceSlot); zero is an idle line. The records a busy line needs —
// its gate queue, its pending eviction — live in tables keyed by line,
// bounded by the operations in flight.
//
// A slice can also hold a line it does not home: a Flex request whose
// critical word was re-chosen from its wanted set (NACK and deny
// retries) may lie on another line, and the slice then fetches and fills
// that line itself. Such a line's slot here belongs to a homed line, so
// its flags live in the foreign table while nonzero.
const (
	lineGated    uint8 = 1 << iota // an operation holds the line (lockLine)
	lineEvicting                   // the line is being evicted: requests are NACKed
	lineDirty                      // a word became registered or dirty since install (Bloom entry set)
)

// gateOp is a line operation queued behind the line's gate: fn(arg).
type gateOp struct {
	fn  func(any)
	arg any
}

// opQueue is a FIFO of gated operations, free-listed per slice.
type opQueue struct {
	ops []gateOp
}

// evictState tracks an eviction waiting on owner recalls, and the
// allocation (fn(arg)) it makes room for.
type evictState struct {
	pending int
	fn      func(any)
	arg     any
}

type l2Slice struct {
	sys  *System
	tile int
	c    *cache.Cache

	fetch   coher.Table[l2Fetch]
	queues  coher.Table[opQueue]    // gated lines with operations waiting
	evicts  coher.Table[evictState] // evictions waiting on owner recalls
	flags   []uint8
	foreign coher.Table[uint8] // flags of non-homed lines, while nonzero
	fetchFL coher.Pool[l2Fetch]
	queueFL coher.Pool[opQueue]
	evictFL coher.Pool[evictState]
	blooms  *bloom.L2Bank
	pred    *bypassPredictor

	// Handlers bound once at construction, so the L2 access latency, the
	// line gate and ensureWay schedule no closure; each takes a message.
	arriveFn, applyFn, installFn func(any)
	evictableFn                  func(*cache.Line) bool
}

func newL2(s *System, tile int) *l2Slice {
	cfg := s.Env.Cfg
	sl := &l2Slice{
		sys:   s,
		tile:  tile,
		c:     cache.New(cfg.L2SliceBytes, cfg.L2Assoc, memsys.LineBytes),
		flags: make([]uint8, coher.SliceLines(s.Env)),
	}
	sl.arriveFn, sl.applyFn, sl.installFn, sl.evictableFn = sl.arrive, sl.apply, sl.install, sl.evictable
	if s.opt.BypassReq {
		sl.blooms = bloom.NewL2Bank(cfg.Bloom)
	}
	if s.opt.PredictBypass {
		sl.pred = newBypassPredictor()
	}
	return sl
}

func (sl *l2Slice) env() *memsys.Env { return sl.sys.Env }

// flagsOf returns line's flags.
func (sl *l2Slice) flagsOf(line uint32) uint8 {
	env := sl.env()
	if env.Cfg.HomeTile(line) == sl.tile {
		return sl.flags[coher.SliceSlot(env, line)]
	}
	if f := sl.foreign.Get(line); f != nil {
		return *f
	}
	return 0
}

// setFlags sets bits in line's flags.
func (sl *l2Slice) setFlags(line uint32, bits uint8) {
	env := sl.env()
	if env.Cfg.HomeTile(line) == sl.tile {
		sl.flags[coher.SliceSlot(env, line)] |= bits
		return
	}
	f := sl.foreign.Get(line)
	if f == nil {
		f = new(uint8)
		sl.foreign.Put(line, f)
	}
	*f |= bits
}

// clearFlags clears bits in line's flags.
func (sl *l2Slice) clearFlags(line uint32, bits uint8) {
	env := sl.env()
	if env.Cfg.HomeTile(line) == sl.tile {
		sl.flags[coher.SliceSlot(env, line)] &^= bits
		return
	}
	if f := sl.foreign.Get(line); f != nil {
		if *f &^= bits; *f == 0 {
			sl.foreign.Delete(line)
		}
	}
}

// arrive runs one L2 access latency after a request reaches the slice:
// loads are served at once, state mutations take the line's gate.
func (sl *l2Slice) arrive(arg any) {
	if m, ok := arg.(*dvnLoadReq); ok {
		sl.serve(m, nil)
		return
	}
	sl.lockLine(gatedLine(arg), sl.applyFn, arg)
}

// gatedLine returns the line a gated mutation (registration, writeback or
// fill) applies to.
func gatedLine(arg any) uint32 {
	switch m := arg.(type) {
	case *dvnRegister:
		return m.line
	case *dvnWB:
		return m.line
	case *dvnL2Fill:
		return m.line
	}
	panic(fmt.Sprintf("denovo: %T is not a gated mutation", arg))
}

// apply performs a gated mutation, first making room for the line when
// it is not resident.
func (sl *l2Slice) apply(arg any) {
	if line := gatedLine(arg); sl.c.Lookup(line) == nil {
		sl.ensureWay(line, sl.installFn, arg)
		return
	}
	sl.installed(arg, false)
}

// install is apply's continuation once a way is free for a line that was
// not resident.
func (sl *l2Slice) install(arg any) { sl.installed(arg, true) }

// installed applies a gated mutation to its resident line; fresh marks a
// line just allocated for it.
func (sl *l2Slice) installed(arg any, fresh bool) {
	switch m := arg.(type) {
	case *dvnRegister:
		sl.registerInstalled(m, fresh)
	case *dvnWB:
		sl.writebackInstalled(m)
	case *dvnL2Fill:
		sl.fillInstalled(m)
	}
}

// afterL2 runs arrive(m) one L2 access latency from now.
func (sl *l2Slice) afterL2(m any) {
	env := sl.env()
	env.K.AtArg(env.K.Now()+env.Cfg.L2Latency, sl.arriveFn, m)
}

// lockLine serializes state mutations per line in arrival order. Timed
// retries would let an old writeback overtake a newer registration from
// the same L1; the FIFO gate preserves per-source message order instead.
// fn must arrange for unlockLine to run when its mutation completes.
func (sl *l2Slice) lockLine(line uint32, fn func(any), arg any) {
	if sl.flagsOf(line)&lineGated == 0 {
		sl.setFlags(line, lineGated)
		fn(arg)
		return
	}
	q := sl.queues.Get(line)
	if q == nil {
		q = sl.queueFL.Get()
		sl.queues.Put(line, q)
	}
	q.ops = append(q.ops, gateOp{fn, arg})
}

func (sl *l2Slice) unlockLine(line uint32) {
	if sl.flagsOf(line)&lineGated == 0 {
		panic("denovo: unlock of ungated line")
	}
	q := sl.queues.Get(line)
	if q == nil || len(q.ops) == 0 {
		sl.clearFlags(line, lineGated)
		if q != nil {
			sl.queues.Delete(line)
			sl.queueFL.Put(q)
		}
		return
	}
	next := q.ops[0]
	n := copy(q.ops, q.ops[1:])
	q.ops[n] = gateOp{}
	q.ops = q.ops[:n]
	next.fn(next.arg)
}

// markDirty maintains the counting Bloom filters of §4.4: a line enters
// its filter when its first word becomes registered or dirty, and leaves
// it when evicted.
func (sl *l2Slice) markDirty(line uint32) {
	if sl.flagsOf(line)&lineDirty == 0 {
		sl.setFlags(line, lineDirty)
		if sl.blooms != nil {
			sl.blooms.Insert(line)
		}
	}
}

// dirtyMask returns the words of a line that are stale in memory
// (registered to an L1 or dirty at the L2).
func (sl *l2Slice) dirtyMask(line uint32) uint16 {
	ln := sl.c.Lookup(line)
	if ln == nil {
		return 0
	}
	var m uint16
	for w := 0; w < lineWords; w++ {
		st := ln.WState[w]
		if st&l2StateMask == l2Registered || st&l2Dirty != 0 {
			m |= 1 << w
		}
	}
	return m
}

// ownerWord pairs a word address with the L1 it must be forwarded to
// (or invalidated at).
type ownerWord struct {
	owner uint8
	addr  uint32
}

// sendByOwner sends one message per distinct owner in ascending owner
// order, each carrying that owner's words in their original order.
func sendByOwner(ows []ownerWord, send func(owner int, words []uint32)) {
	for len(ows) > 0 {
		lo := ows[0].owner
		for _, ow := range ows[1:] {
			lo = min(lo, ow.owner)
		}
		var words []uint32
		rest := ows[:0]
		for _, ow := range ows {
			if ow.owner == lo {
				words = append(words, ow.addr)
			} else {
				rest = append(rest, ow)
			}
		}
		send(int(lo), words)
		ows = rest
	}
}

// --- load requests ---

func (sl *l2Slice) handleLoadReq(m *dvnLoadReq) { sl.afterL2(m) }

// serve satisfies a request from the L2 array, remote owners, and memory.
// stamp is non-nil when the request was re-dispatched after a fill, so
// loads keep their memory-time attribution.
func (sl *l2Slice) serve(m *dvnLoadReq, stamp *memStamp) {
	env := sl.env()
	// Collected on the stack; each message keeps an exactly sized copy.
	var directBuf, deniedBuf, memBuf [2 * lineWords]uint32
	direct, denied, mem := directBuf[:0], deniedBuf[:0], memBuf[:0]
	nacked := 0
	var fwdBuf [2 * lineWords]ownerWord
	fwd := fwdBuf[:0]

	critLine := memsys.LineOf(m.crit)
	bypass := m.bypass
	if sl.pred != nil && !bypass && sl.pred.shouldBypass(critLine) {
		bypass = true
	}
	for _, addr := range m.wants {
		line, w := memsys.LineOf(addr), memsys.WordIndex(addr)
		if sl.flagsOf(line)&lineEvicting != 0 {
			nacked++
			continue
		}
		ln := sl.c.Lookup(line)
		if ln != nil {
			switch ln.WState[w] & l2StateMask {
			case l2Valid:
				direct = append(direct, addr)
				continue
			case l2Registered:
				if int(ln.Owner[w]) != m.from {
					fwd = append(fwd, ownerWord{ln.Owner[w], addr})
					continue
				}
				// Registered to the requestor itself: nothing to send
				// (it already owns the word); drop from the want set.
				denied = append(denied, addr)
				continue
			}
		}
		// Invalid at the L2 (or line absent): memory.
		if line != critLine && !(bypass && sl.sys.opt.FlexL2) {
			// Cross-line Flex prefetch is only fetched from memory by the
			// bypass+FlexL2 path; otherwise only on-chip copies serve it.
			denied = append(denied, addr)
			continue
		}
		mem = append(mem, addr)
	}

	if len(direct) > 0 {
		sl.sendFromArray(m, slices.Clone(direct), stamp)
	}
	sendByOwner(fwd, func(owner int, words []uint32) {
		sl.sys.SendCtl(memsys.ClassLD, memsys.BReqCtl, sl.tile, owner, &dvnFwdRead{
			key: m.key, requestor: m.from, words: words, tIssue: m.tIssue,
		})
	})
	if nacked > 0 {
		// NACK: the requestor retries the whole remainder (§5.2.4).
		sl.sys.SendCtl(memsys.ClassOVH, memsys.BOvhNack, sl.tile, m.from,
			&dvnNack{key: m.key, from: sl.tile})
	}
	if len(denied) > 0 {
		sl.sys.SendCtl(memsys.ClassLD, memsys.BRespCtl, sl.tile, m.from,
			&dvnDeny{key: m.key, words: slices.Clone(denied)})
	}
	if len(mem) == 0 {
		return
	}
	memWords := slices.Clone(mem)
	coher.SortU32(memWords)

	if bypass {
		// L2 response bypass: fetch straight to the L1, no L2 fill.
		mc := env.Cfg.MCTile(critLine)
		sl.sys.SendCtl(memsys.ClassLD, memsys.BReqCtl, sl.tile, mc, &dvnMemRead{
			key: m.key, critLine: critLine, wants: memWords,
			noReturn: sl.dirtyMask(critLine),
			home:     sl.tile, requestor: m.from,
			direct: true, fillL2: false, flex: m.flex && sl.sys.opt.FlexL2,
			class: memsys.ClassLD, tIssue: m.tIssue,
		})
		return
	}

	if f := sl.fetch.Get(critLine); f != nil {
		// A fetch is already in flight: re-dispatch the remainder after
		// the fill.
		rest := *m
		rest.wants = memWords
		f.retry = append(f.retry, &rest)
		return
	}

	f := sl.newFetch(critLine)
	if sl.sys.opt.MemToL1 {
		// §3.1 Memory Controller to L1 Transfer: data goes to the L1 and
		// the L2 in parallel; the request carries the dirty-word vector.
		sl.sendMemRead(m, critLine, memWords, true)
		return
	}
	// Baseline: memory fills the L2; the requestor is re-dispatched after
	// the fill and served from the array.
	rest := *m
	rest.wants = memWords
	f.retry = append(f.retry, &rest)
	sl.sendMemRead(m, critLine, nil, false)
}

func (sl *l2Slice) sendMemRead(m *dvnLoadReq, critLine uint32, wants []uint32, direct bool) {
	mc := sl.env().Cfg.MCTile(critLine)
	sl.sys.SendCtl(memsys.ClassLD, memsys.BReqCtl, sl.tile, mc, &dvnMemRead{
		key: m.key, critLine: critLine, wants: wants,
		noReturn: sl.dirtyMask(critLine),
		home:     sl.tile, requestor: m.from,
		direct: direct, fillL2: true,
		flex:  m.flex && sl.sys.opt.FlexL2,
		class: memsys.ClassLD, tIssue: m.tIssue,
	})
}

// sendFromArray serves words from the L2 data array: genuine L2 reuse, so
// the words classify as Used at the L2 (Figure 4.2) — unless this is the
// immediate forward of a fill (stamp != nil), which is the L1's copy, not
// L2 reuse.
func (sl *l2Slice) sendFromArray(m *dvnLoadReq, words []uint32, stamp *memStamp) {
	env := sl.env()
	vals := make([]uint32, len(words))
	minsts := make([]uint64, len(words))
	for i, addr := range words {
		ln := sl.c.Lookup(memsys.LineOf(addr))
		w := memsys.WordIndex(addr)
		vals[i] = ln.Data[w]
		minsts[i] = ln.MInst[w]
		if stamp == nil {
			env.Prof.L2Served(ln.Inst[w])
			if ln.State < 255 {
				ln.State++ // reuse count for the bypass predictor
			}
		}
		sl.c.Touch(ln)
	}
	hops := sl.sys.CtlHops(memsys.ClassLD, memsys.BRespCtl, sl.tile, m.from)
	d := &dvnData{key: m.key, words: words, vals: vals, minsts: minsts, hops: hops}
	if stamp != nil {
		d.fromMem = true
		d.tAtMC, d.tDram = stamp.tAtMC, stamp.tDram
	}
	sl.sys.SendData(sl.tile, m.from, len(words), d)
}

// --- registration (§2) ---

func (sl *l2Slice) handleRegister(m *dvnRegister) { sl.afterL2(m) }

// registerInstalled applies a registration once the line has a way.
func (sl *l2Slice) registerInstalled(m *dvnRegister, fresh bool) {
	env := sl.env()
	ln := sl.c.Allocate(m.line)
	var invalBuf [lineWords]ownerWord
	invals := invalBuf[:0]
	for w := 0; w < lineWords; w++ {
		if m.mask&(1<<w) == 0 {
			continue
		}
		addr := memsys.AddrOf(m.line, w)
		switch ln.WState[w] & l2StateMask {
		case l2Registered:
			old := ln.Owner[w]
			if int(old) != m.from {
				invals = append(invals, ownerWord{old, addr})
			}
		case l2Valid:
			// The L2's clean copy dies before use: Write waste (Fig 4.2).
			env.Prof.L2Overwritten(ln.Inst[w])
			if ln.MInst[w] != 0 {
				env.Prof.MemRelease(ln.MInst[w], false)
				ln.MInst[w] = 0
			}
			sl.markDirty(m.line)
		case l2Invalid:
			sl.markDirty(m.line)
		}
		ln.WState[w] = l2Registered | (ln.WState[w] &^ (l2StateMask | l2Dirty))
		ln.Owner[w] = uint8(m.from)
		ln.Inst[w] = 0
	}
	sendByOwner(invals, func(owner int, words []uint32) {
		sl.sys.SendCtl(memsys.ClassST, memsys.BReqCtl, sl.tile, owner, &dvnInvalWord{words: words})
	})
	// Baseline DeNovo keeps a fetch-on-write L2: a write miss fetches the
	// rest of the line from memory (§3.1).
	if fresh && !sl.sys.opt.ValidateL2 {
		sl.fetchForWrite(m.line)
	}
	sl.sys.SendCtl(memsys.ClassST, memsys.BRespCtl, sl.tile, m.from,
		&dvnRegAck{line: m.line, mask: m.mask})
	sl.unlockLine(m.line)
}

// fetchForWrite fills the invalid words of a write-allocated line
// (fetch-on-write at the L2, baseline DeNovo only).
func (sl *l2Slice) fetchForWrite(line uint32) {
	if sl.fetch.Has(line) {
		return
	}
	// Nothing to fetch when every word is already registered, dirty or
	// valid (a fully overwritten line, e.g. radix's permutation).
	ln := sl.c.Lookup(line)
	need := false
	for w := 0; w < lineWords; w++ {
		if ln == nil || ln.WState[w]&(l2StateMask|l2Dirty) == l2Invalid {
			need = true
			break
		}
	}
	if !need {
		return
	}
	sl.newFetch(line)
	mc := sl.env().Cfg.MCTile(line)
	sl.sys.SendCtl(memsys.ClassST, memsys.BReqCtl, sl.tile, mc, &dvnMemRead{
		key: line, critLine: line,
		noReturn: sl.dirtyMask(line),
		home:     sl.tile, requestor: -1,
		fillL2: true, class: memsys.ClassST,
	})
}

// --- writebacks ---

func (sl *l2Slice) handleWB(m *dvnWB) { sl.afterL2(m) }

func (sl *l2Slice) writebackInstalled(m *dvnWB) {
	env := sl.env()
	ln := sl.c.Allocate(m.line)
	fresh := false
	for w := 0; w < lineWords; w++ {
		if m.mask&(1<<w) == 0 {
			continue
		}
		st := ln.WState[w] & l2StateMask
		if st == l2Registered && int(ln.Owner[w]) != m.from {
			continue // superseded by a newer registrant: stale data
		}
		switch st {
		case l2Valid:
			// Combined writeback+register over a clean copy.
			env.Prof.L2Overwritten(ln.Inst[w])
			if ln.MInst[w] != 0 {
				env.Prof.MemRelease(ln.MInst[w], false)
				ln.MInst[w] = 0
			}
			sl.markDirty(m.line)
		case l2Invalid:
			sl.markDirty(m.line)
			fresh = true
		}
		ln.Data[w] = m.vals[w]
		ln.WState[w] = l2Valid | l2Dirty
		ln.Owner[w] = 0
		ln.Inst[w] = 0
	}
	if fresh && !sl.sys.opt.ValidateL2 {
		sl.fetchForWrite(m.line)
	}
	sl.sys.SendCtl(memsys.ClassWB, memsys.BWBCtl, sl.tile, m.from, &dvnWBAck{line: m.line})
	sl.unlockLine(m.line)
}

// --- fills ---

func (sl *l2Slice) handleL2Fill(m *dvnL2Fill) { sl.afterL2(m) }

func (sl *l2Slice) fillInstalled(m *dvnL2Fill) {
	env := sl.env()
	ln := sl.c.Allocate(m.line)
	var instBuf [lineWords]uint64
	insts := instBuf[:0]
	for w := 0; w < lineWords; w++ {
		if m.mask&(1<<w) == 0 {
			continue
		}
		addr := memsys.AddrOf(m.line, w)
		present := ln.WState[w]&l2StateMask != l2Invalid
		id := env.Prof.L2Arrival(addr, present)
		insts = append(insts, id)
		if present {
			// The shipped copy is dropped (the L2 already has the word).
			env.Prof.MemRelease(m.minsts[w], false)
			continue
		}
		ln.Data[w] = m.vals[w]
		ln.WState[w] = l2Valid
		ln.Inst[w] = id
		ln.MInst[w] = m.minsts[w]
		env.Prof.MemAddRef(m.minsts[w])
	}
	env.Traffic.Data(m.class, m.hops, insts)

	f := sl.fetch.Get(m.line)
	sl.fetch.Delete(m.line)
	sl.unlockLine(m.line)
	if f == nil {
		return
	}
	stamp := memStamp{tAtMC: m.tAtMC, tDram: m.tDram}
	for _, req := range f.retry {
		sl.serve(req, &stamp)
	}
	clear(f.retry)
	sl.fetchFL.Put(f)
}

// newFetch installs a recycled fetch entry for line.
func (sl *l2Slice) newFetch(line uint32) *l2Fetch {
	f := sl.fetchFL.Get()
	*f = l2Fetch{line: line, retry: f.retry[:0]}
	sl.fetch.Put(line, f)
	return f
}

// --- eviction ---

// evictable reports whether an L2 way may be chosen as a victim: its line
// is not gated, not already being evicted, and not being fetched.
func (sl *l2Slice) evictable(l *cache.Line) bool {
	return sl.flagsOf(l.Tag)&(lineGated|lineEvicting) == 0 && !sl.fetch.Has(l.Tag)
}

// ensureWay guarantees a free way in line's set, then calls fn(arg).
func (sl *l2Slice) ensureWay(line uint32, fn func(any), arg any) {
	victim := sl.c.VictimWhere(line, sl.evictableFn)
	if victim == nil {
		sl.sys.RetryAfter(func() { sl.ensureWay(line, fn, arg) })
		return
	}
	if !victim.Valid {
		fn(arg)
		return
	}
	// The continuation runs synchronously when the eviction finishes and
	// claims the freed way immediately (callers Allocate first thing), so
	// concurrent allocations cannot steal it and livelock the set.
	sl.evictLine(victim, fn, arg)
}

// ownerMask is the words of a line registered to one owner.
type ownerMask struct {
	owner uint8
	mask  uint16
}

// evictLine recalls registered words from their owners, writes dirty words
// to memory, frees the way and calls fn(arg).
func (sl *l2Slice) evictLine(ln *cache.Line, fn func(any), arg any) {
	line := ln.Tag
	// The victim is ungated (evictable guarantees it); take its gate so
	// arriving registrations/writebacks queue behind the eviction.
	sl.setFlags(line, lineGated|lineEvicting)
	var owners [lineWords]ownerMask
	n := 0
	for w := 0; w < lineWords; w++ {
		if ln.WState[w]&l2StateMask != l2Registered {
			continue
		}
		o := ln.Owner[w]
		i := 0
		for i < n && owners[i].owner != o {
			i++
		}
		if i == n {
			owners[n].owner = o
			n++
		}
		owners[i].mask |= 1 << w
	}
	if n == 0 {
		sl.finishEvict(ln, fn, arg)
		return
	}
	es := sl.evictFL.Get()
	*es = evictState{pending: n, fn: fn, arg: arg}
	sl.evicts.Put(line, es)
	recalls := owners[:n]
	slices.SortFunc(recalls, func(a, b ownerMask) int { return int(a.owner) - int(b.owner) })
	for _, r := range recalls { // deterministic order
		sl.sys.SendCtl(memsys.ClassWB, memsys.BWBCtl, sl.tile, int(r.owner),
			&dvnRecall{line: line, mask: r.mask})
	}
}

func (sl *l2Slice) handleRecallResp(m *dvnRecallResp) {
	ln := sl.c.Lookup(m.line)
	es := sl.evicts.Get(m.line)
	if es == nil || ln == nil {
		panic(fmt.Sprintf("denovo: slice %d recall resp line %#x from %d mask %04x: st=%v ln=%v flags=%03b",
			sl.tile, m.line, m.from, m.mask, es != nil, ln != nil, sl.flagsOf(m.line)))
	}
	for w := 0; w < lineWords; w++ {
		if m.mask&(1<<w) == 0 {
			continue
		}
		ln.Data[w] = m.vals[w]
		ln.WState[w] = l2Valid | l2Dirty
		ln.Owner[w] = 0
	}
	es.pending--
	if es.pending == 0 {
		sl.evicts.Delete(m.line)
		fn, arg := es.fn, es.arg
		*es = evictState{}
		sl.evictFL.Put(es)
		sl.finishEvict(ln, fn, arg)
	}
}

// finishEvict writes dirty words back to memory (dirty-words-only with
// ValidateL2; the full line otherwise), removes the line and calls
// fn(arg).
func (sl *l2Slice) finishEvict(ln *cache.Line, fn func(any), arg any) {
	env := sl.env()
	line := ln.Tag
	var dirty uint16
	msg := &msgMemWBPartial{line: line}
	for w := 0; w < lineWords; w++ {
		if ln.WState[w]&l2Dirty != 0 {
			dirty |= 1 << w
			msg.vals[w] = ln.Data[w]
		}
		env.Prof.L2Evict(ln.Inst[w])
		if ln.MInst[w] != 0 {
			env.Prof.MemRelease(ln.MInst[w], false)
		}
	}
	if dirty != 0 {
		msg.mask = dirty
		mc := env.Cfg.MCTile(line)
		nDirty := coher.Popcount16(dirty)
		clean := 0
		if !sl.sys.opt.ValidateL2 {
			// Baseline: the full 64B line travels to memory.
			clean = lineWords - nDirty
		}
		hops := sl.sys.CtlHops(memsys.ClassWB, memsys.BWBCtl, sl.tile, mc)
		env.Traffic.WBData(true, hops, nDirty, clean)
		sl.sys.SendData(sl.tile, mc, nDirty+clean, msg)
	}
	if sl.flagsOf(line)&lineDirty != 0 {
		sl.clearFlags(line, lineDirty)
		if sl.blooms != nil {
			sl.blooms.Remove(line)
		}
	}
	if sl.pred != nil {
		sl.pred.train(line, ln.State > 0)
	}
	sl.c.Remove(ln)
	sl.clearFlags(line, lineEvicting)
	// The waiting allocation claims the freed way synchronously BEFORE the
	// gate releases queued operations, which could otherwise steal it and
	// force a silent eviction of a line that is mid-recall.
	fn(arg)
	sl.unlockLine(line)
}

// --- Bloom copies (§4.4) ---

func (sl *l2Slice) handleBloomReq(m *dvnBloomReq) {
	env := sl.env()
	hops := sl.sys.Hops(sl.tile, m.from)
	snap := sl.blooms.Snapshot(m.idx)
	// The snapshot payload is entries/8 bytes (64B for the paper's 512
	// entries): one control flit plus the data flits it fills.
	flits := 1 + memsys.DataFlits((snap.SizeBytes()+3)/4)
	env.Traffic.Ctl(memsys.ClassOVH, memsys.BOvhBloom, flits, hops)
	sl.sys.Send(sl.tile, m.from, flits, &dvnBloomResp{
		idx: m.idx, slice: sl.tile, snap: snap,
	})
}
