package mesi

import (
	"fmt"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/coher"
	"repro/internal/memsys"
)

// Transaction kinds at the directory.
const (
	txFetch uint8 = iota // memory fetch in flight (GetS/GetX miss)
	txHit                // on-chip service, waiting for unblock
	txFwd                // forwarded to owner
	txEvict              // inclusive L2 eviction / recall
)

// txn is one in-flight directory transaction for a line. The directory is
// blocking: while a txn exists, other requests for the line are NACKed.
type txn struct {
	kind      uint8
	requestor int
	class     memsys.Class
	grant     uint8
	isStore   bool
	tIssue    int64

	needUnblock   bool
	needDowngrade bool

	line uint32 // txFetch: the line being fetched

	// Eviction sub-state.
	pendingAcks int
	// The ensureWay call the eviction was made for: it is retried once
	// the eviction finishes.
	contLine uint32
	contFn   func(any)
	contArg  any
}

// dirEntry is the directory state for a line. An entry exists (live)
// while the line is resident in the L2 array and/or has a transaction in
// flight; a dead entry is the zero value.
type dirEntry struct {
	sharers uint64 // bit t: the L1 at tile t holds an S copy
	busy    *txn
	owner   int8 // owning L1 tile (E or M), -1 if none
	hasData bool // L2 data array holds valid data (false for MMemL1 store fills)
	live    bool
}

type l2Slice struct {
	sys  *System
	tile int
	c    *cache.Cache
	dir  []dirEntry // indexed by coher.SliceSlot
	txns coher.Pool[txn]

	// Handlers bound once at construction, so an L2 access latency or an
	// ensureWay continuation schedules no closure; the argument is the
	// message (or, for sendMemReadFn, the fetch txn).
	arriveFn, sendMemReadFn, fillFromMemFn, fillFromUnblockFn func(any)
	evictableFn                                               func(*cache.Line) bool
}

func newL2(s *System, tile int) *l2Slice {
	cfg := s.Env.Cfg
	sl := &l2Slice{
		sys:  s,
		tile: tile,
		c:    cache.New(cfg.L2SliceBytes, cfg.L2Assoc, memsys.LineBytes),
		dir:  make([]dirEntry, coher.SliceLines(s.Env)),
	}
	sl.arriveFn = sl.arrive
	sl.sendMemReadFn, sl.fillFromMemFn, sl.fillFromUnblockFn = sl.sendMemRead, sl.fillFromMem, sl.fillFromUnblock
	sl.evictableFn = sl.evictable
	return sl
}

func (sl *l2Slice) env() *memsys.Env { return sl.sys.Env }

// afterL2 runs arrive(m) one L2 access latency from now.
func (sl *l2Slice) afterL2(m any) {
	env := sl.env()
	env.K.AtArg(env.K.Now()+env.Cfg.L2Latency, sl.arriveFn, m)
}

// arrive handles a request once it has waited out the L2 access latency.
func (sl *l2Slice) arrive(arg any) {
	switch m := arg.(type) {
	case *msgGetS:
		sl.getS(m)
	case *msgGetX:
		sl.getX(m)
	case *msgUpgrade:
		sl.upgrade(m)
	case *msgPut:
		sl.put(m)
	case *msgMemData:
		sl.memData(m)
	default:
		panic(fmt.Sprintf("mesi: %T does not wait out the L2 latency", arg))
	}
}

// lookup returns line's live directory entry, or nil.
func (sl *l2Slice) lookup(line uint32) *dirEntry {
	if e := &sl.dir[coher.SliceSlot(sl.env(), line)]; e.live {
		return e
	}
	return nil
}

// entry returns line's directory entry, creating it if needed.
func (sl *l2Slice) entry(line uint32) *dirEntry {
	e := &sl.dir[coher.SliceSlot(sl.env(), line)]
	if !e.live {
		*e = dirEntry{owner: -1, live: true}
	}
	return e
}

// drop deletes line's directory entry.
func (sl *l2Slice) drop(line uint32) { sl.dir[coher.SliceSlot(sl.env(), line)] = dirEntry{} }

// newTxn makes a transaction record from the free list.
func (sl *l2Slice) newTxn(t txn) *txn {
	p := sl.txns.Get()
	*p = t
	return p
}

func (sl *l2Slice) nack(line uint32, to int, isStore, isPut bool) {
	sl.sys.SendCtl(memsys.ClassOVH, memsys.BOvhNack, sl.tile, to,
		&msgNack{line: line, from: sl.tile, isStore: isStore, isPut: isPut})
}

// --- request handlers ---

func (sl *l2Slice) handleGetS(m *msgGetS) { sl.afterL2(m) }

func (sl *l2Slice) getS(m *msgGetS) {
	e := sl.lookup(m.line)
	if e != nil && e.busy != nil {
		sl.nack(m.line, m.from, false, false)
		return
	}
	ln := sl.c.Lookup(m.line)
	switch {
	case ln == nil:
		sl.startFetch(m.line, m.from, memsys.ClassLD, stE, false)
	case e.owner >= 0:
		e.busy = sl.newTxn(txn{kind: txFwd, requestor: m.from, class: memsys.ClassLD,
			needUnblock: true, needDowngrade: true})
		sl.sys.SendCtl(memsys.ClassLD, memsys.BReqCtl, sl.tile, int(e.owner),
			&msgFwd{line: m.line, requestor: m.from})
	default:
		grant := stS
		if e.sharers == 0 {
			grant = stE
			e.owner = int8(m.from)
		} else {
			e.sharers |= 1 << m.from
		}
		sl.serveFromL2(ln, e, m.from, memsys.ClassLD, grant, 0)
	}
}

func (sl *l2Slice) handleGetX(m *msgGetX) { sl.afterL2(m) }

func (sl *l2Slice) getX(m *msgGetX) {
	e := sl.lookup(m.line)
	if e != nil && e.busy != nil {
		sl.nack(m.line, m.from, true, false)
		return
	}
	ln := sl.c.Lookup(m.line)
	switch {
	case ln == nil:
		sl.startFetch(m.line, m.from, memsys.ClassST, stM, true)
	case e.owner >= 0:
		e.busy = sl.newTxn(txn{kind: txFwd, requestor: m.from, class: memsys.ClassST,
			isStore: true, needUnblock: true})
		sl.sys.SendCtl(memsys.ClassST, memsys.BReqCtl, sl.tile, int(e.owner),
			&msgFwd{line: m.line, requestor: m.from, excl: true})
		e.owner = int8(m.from)
	default:
		others := e.sharers &^ (1 << m.from)
		acks := bits.OnesCount64(others)
		sl.sendInvs(m.line, others, m.from, false)
		e.sharers = 0
		e.owner = int8(m.from)
		sl.serveFromL2(ln, e, m.from, memsys.ClassST, stM, acks)
	}
}

func (sl *l2Slice) handleUpgrade(m *msgUpgrade) { sl.afterL2(m) }

func (sl *l2Slice) upgrade(m *msgUpgrade) {
	e := sl.lookup(m.line)
	if e == nil || e.busy != nil || e.owner >= 0 || e.sharers&(1<<m.from) == 0 {
		// Raced with an invalidation (or the line left the L2): the
		// requestor will convert to a full GetX.
		sl.nack(m.line, m.from, true, false)
		return
	}
	others := e.sharers &^ (1 << m.from)
	acks := bits.OnesCount64(others)
	sl.sendInvs(m.line, others, m.from, false)
	e.sharers = 0
	e.owner = int8(m.from)
	e.busy = sl.newTxn(txn{kind: txHit, requestor: m.from, class: memsys.ClassST,
		isStore: true, needUnblock: true})
	sl.sys.SendCtl(memsys.ClassST, memsys.BRespCtl, sl.tile, m.from,
		&msgUpgAck{line: m.line, acks: acks})
	if ln := sl.c.Lookup(m.line); ln != nil {
		sl.c.Touch(ln)
	}
}

// serveFromL2 answers a request from the L2 data array: this is genuine L2
// reuse, so the served words classify as Used at the L2 (Figure 4.2).
func (sl *l2Slice) serveFromL2(ln *cache.Line, e *dirEntry, to int, class memsys.Class, grant uint8, acks int) {
	env := sl.env()
	e.busy = sl.newTxn(txn{kind: txHit, requestor: to, class: class, needUnblock: true})
	var data [lineWords]uint32
	var minst [lineWords]uint64
	for w := 0; w < lineWords; w++ {
		data[w] = ln.Data[w]
		minst[w] = ln.MInst[w]
		env.Prof.L2Served(ln.Inst[w])
	}
	sl.c.Touch(ln)
	hops := sl.sys.CtlHops(class, memsys.BRespCtl, sl.tile, to)
	sl.sys.SendData(sl.tile, to, lineWords, &msgData{
		line: ln.Tag, state: grant, acks: acks, data: data, minst: minst,
		hops: hops, class: class,
	})
}

// sendInvs invalidates every sharer in ascending tile order.
func (sl *l2Slice) sendInvs(line uint32, sharers uint64, ackTo int, toL2 bool) {
	for s := sharers; s != 0; s &= s - 1 {
		t := bits.TrailingZeros64(s)
		sl.sys.SendCtl(memsys.ClassOVH, memsys.BOvhInval, sl.tile, t,
			&msgInv{line: line, ackTo: ackTo, toL2: toL2})
	}
}

// startFetch begins an L2 miss: reserve a way (recalling an inclusive
// victim if needed), then read the line from memory.
func (sl *l2Slice) startFetch(line uint32, requestor int, class memsys.Class, grant uint8, isStore bool) {
	env := sl.env()
	e := sl.entry(line)
	e.busy = sl.newTxn(txn{kind: txFetch, line: line, requestor: requestor, class: class, grant: grant,
		isStore: isStore, needUnblock: true, tIssue: env.K.Now()})
	sl.ensureWay(line, sl.sendMemReadFn, e.busy)
}

// sendMemRead is startFetch's continuation once a way is reserved; arg is
// the fetch txn.
func (sl *l2Slice) sendMemRead(arg any) {
	t := arg.(*txn)
	mc := sl.env().Cfg.MCTile(t.line)
	sl.sys.SendCtl(t.class, memsys.BReqCtl, sl.tile, mc, &msgMemRead{
		line: t.line, home: sl.tile, requestor: t.requestor, grant: t.grant,
		class: t.class, direct: sl.sys.opt.MemToL1, tIssue: t.tIssue,
	})
}

// evictable reports whether an L2 way may be chosen as a victim: its line
// has no transaction in flight.
func (sl *l2Slice) evictable(l *cache.Line) bool {
	ve := sl.lookup(l.Tag)
	return ve == nil || ve.busy == nil
}

// ensureWay guarantees the set of line has a free way, evicting an
// unbusied victim first if necessary, then calls fn(arg).
func (sl *l2Slice) ensureWay(line uint32, fn func(any), arg any) {
	victim := sl.c.VictimWhere(line, sl.evictableFn)
	if victim == nil {
		// Every way is mid-transaction; retry shortly.
		sl.sys.RetryAfter(func() { sl.ensureWay(line, fn, arg) })
		return
	}
	if !victim.Valid {
		fn(arg)
		return
	}
	sl.evictLine(victim, line, fn, arg)
}

// evictLine removes a resident line to make room, recalling or
// invalidating L1 copies first (inclusive L2), then retries
// ensureWay(contLine, fn, arg).
func (sl *l2Slice) evictLine(ln *cache.Line, contLine uint32, fn func(any), arg any) {
	line := ln.Tag
	e := sl.entry(line)
	e.busy = sl.newTxn(txn{kind: txEvict, contLine: contLine, contFn: fn, contArg: arg})
	switch {
	case e.owner >= 0:
		sl.sys.SendCtl(memsys.ClassOVH, memsys.BOvhInval, sl.tile, int(e.owner),
			&msgRecall{line: line})
	case e.sharers != 0:
		e.busy.pendingAcks = bits.OnesCount64(e.sharers)
		sl.sendInvs(line, e.sharers, sl.tile, true)
		e.sharers = 0
	default:
		sl.finishEvict(ln, e)
	}
}

// handleRecallResp collects an owner's recall data or a sharer's
// L2-directed invalidation ack during an eviction.
func (sl *l2Slice) handleRecallResp(m *msgRecallResp) {
	e := sl.lookup(m.line)
	if e == nil || e.busy == nil || e.busy.kind != txEvict {
		panic(fmt.Sprintf("mesi: stray recall response for line %#x", m.line))
	}
	ln := sl.c.Lookup(m.line)
	if m.hasData {
		sl.mergeDirty(ln, m.data, m.wmask)
	}
	if e.owner >= 0 && m.from == int(e.owner) {
		e.owner = -1
		sl.finishEvict(ln, e)
		return
	}
	e.busy.pendingAcks--
	if e.busy.pendingAcks <= 0 {
		sl.finishEvict(ln, e)
	}
}

// finishEvict writes the (full) line back to memory if dirty, releases
// profiling state, and frees the way.
func (sl *l2Slice) finishEvict(ln *cache.Line, e *dirEntry) {
	env := sl.env()
	line := ln.Tag
	dirtyMask := coher.DirtyMask(ln, wDirty)
	data := coher.SnapshotData(ln)
	coher.ReleaseL2Line(env, ln)
	if dirtyMask != 0 {
		// MESI always writes the full 64B line back to memory; the clean
		// words are the Mem Waste of Figure 5.1d.
		mc := env.Cfg.MCTile(line)
		dirty := coher.Popcount16(dirtyMask)
		hops := sl.sys.CtlHops(memsys.ClassWB, memsys.BWBCtl, sl.tile, mc)
		env.Traffic.WBData(true, hops, dirty, lineWords-dirty)
		sl.sys.SendData(sl.tile, mc, lineWords, &msgMemWB{
			line: line, data: data, wmask: 0xffff,
		})
	}
	sl.c.Remove(ln)
	t := e.busy
	contLine, fn, arg := t.contLine, t.contFn, t.contArg
	*t = txn{}
	sl.txns.Put(t)
	sl.drop(line)
	if fn != nil {
		sl.ensureWay(contLine, fn, arg)
	}
}

// --- fills and writebacks ---

// handleMemData fills the L2 from memory (baseline path) and forwards the
// line to the requestor. The fill-forward is the L1's copy; the L2 copy's
// usefulness is decided by later reuse, so no Used marking happens here.
func (sl *l2Slice) handleMemData(m *msgMemData) { sl.afterL2(m) }

func (sl *l2Slice) memData(m *msgMemData) {
	e := sl.lookup(m.line)
	if e == nil || e.busy == nil || e.busy.kind != txFetch {
		panic(fmt.Sprintf("mesi: memory data without fetch txn for line %#x", m.line))
	}
	sl.ensureWay(m.line, sl.fillFromMemFn, m)
}

// fillFromMem is memData's continuation once a way is free.
func (sl *l2Slice) fillFromMem(arg any) {
	m := arg.(*msgMemData)
	env := sl.env()
	e := sl.lookup(m.line)
	ln := sl.c.Allocate(m.line)
	var insts [lineWords]uint64
	for w := 0; w < lineWords; w++ {
		a := memsys.AddrOf(m.line, w)
		ln.Data[w] = m.data[w]
		ln.MInst[w] = m.minst[w]
		id := env.Prof.L2Arrival(a, false)
		ln.Inst[w] = id
		insts[w] = id
		env.Prof.MemAddRef(m.minst[w])
	}
	env.Traffic.Data(m.class, m.hops, insts[:])
	e.hasData = true
	if m.grant == stE || m.grant == stM {
		e.owner = int8(m.req)
	} else {
		e.sharers |= 1 << m.req
	}
	hops := sl.sys.CtlHops(m.class, memsys.BRespCtl, sl.tile, m.req)
	sl.sys.SendData(sl.tile, m.req, lineWords, &msgData{
		line: m.line, state: m.grant, data: m.data, minst: m.minst,
		fromMem: true, tIssue: m.tIssue, tAtMC: m.tAtMC, tDram: m.tDram,
		hops: hops, class: m.class,
	})
}

// handleUnblock ends a transaction. Under MMemL1, load unblocks carry the
// memory data into the L2; store fills leave the L2 entry data-less.
func (sl *l2Slice) handleUnblock(m *msgUnblock) {
	e := sl.lookup(m.line)
	if e == nil || e.busy == nil {
		panic(fmt.Sprintf("mesi: unblock without txn for line %#x", m.line))
	}
	t := e.busy
	t.needUnblock = false
	if t.kind == txFetch && sl.sys.opt.MemToL1 {
		sl.ensureWay(m.line, sl.fillFromUnblockFn, m)
		return
	}
	sl.completeTxn(m.line, e)
}

// fillFromUnblock is handleUnblock's MMemL1 continuation once a way is
// free; the fetch txn is still the entry's busy one.
func (sl *l2Slice) fillFromUnblock(arg any) {
	m := arg.(*msgUnblock)
	env := sl.env()
	e := sl.lookup(m.line)
	t := e.busy
	ln := sl.c.Allocate(m.line)
	if m.withData {
		var insts [lineWords]uint64
		for w := 0; w < lineWords; w++ {
			a := memsys.AddrOf(m.line, w)
			ln.Data[w] = m.data[w]
			ln.MInst[w] = m.minst[w]
			id := env.Prof.L2Arrival(a, false)
			ln.Inst[w] = id
			insts[w] = id
			env.Prof.MemAddRef(m.minst[w])
		}
		env.Traffic.Data(memsys.ClassLD, m.hops, insts[:])
		e.hasData = true
	} else {
		e.hasData = false
	}
	if t.grant == stE || t.grant == stM {
		e.owner = int8(t.requestor)
	} else {
		e.sharers |= 1 << t.requestor
	}
	sl.completeTxn(m.line, e)
}

func (sl *l2Slice) handleDowngradeWB(m *msgDowngradeWB) {
	e := sl.lookup(m.line)
	if e == nil || e.busy == nil || !e.busy.needDowngrade {
		panic(fmt.Sprintf("mesi: stray downgrade WB for line %#x", m.line))
	}
	ln := sl.c.Lookup(m.line)
	sl.mergeDirty(ln, m.data, m.wmask)
	e.hasData = true
	// The former owner becomes a sharer alongside the requestor.
	e.sharers |= 1 << m.from
	e.sharers |= 1 << e.busy.requestor
	e.owner = -1
	e.busy.needDowngrade = false
	sl.completeTxn(m.line, e)
}

func (sl *l2Slice) completeTxn(line uint32, e *dirEntry) {
	if e.busy == nil || e.busy.needUnblock || e.busy.needDowngrade {
		return
	}
	*e.busy = txn{}
	sl.txns.Put(e.busy)
	e.busy = nil
	if sl.c.Lookup(line) == nil && e.owner < 0 && e.sharers == 0 {
		sl.drop(line)
	}
}

// mergeDirty folds a full-line writeback from an L1 into the L2 line:
// MESI transfers whole lines, so every word is overwritten — open L2 word
// instances classify as Write waste (Figure 4.2, "overwritten by the data
// included in an L1 writeback") and their memory instances are released.
// Only the words the core actually wrote (wmask) become dirty for the
// L2->memory writeback accounting.
func (sl *l2Slice) mergeDirty(ln *cache.Line, data [lineWords]uint32, wmask uint16) {
	if ln == nil {
		return // transiently data-less entry: nothing cached to merge into
	}
	env := sl.env()
	for w := 0; w < lineWords; w++ {
		env.Prof.L2Overwritten(ln.Inst[w])
		if ln.MInst[w] != 0 {
			env.Prof.MemRelease(ln.MInst[w], false)
			ln.MInst[w] = 0
		}
		ln.Data[w] = data[w]
		if wmask&(1<<w) != 0 {
			ln.WState[w] |= wDirty
		}
	}
}

// handlePut processes writebacks and clean replacement notices.
func (sl *l2Slice) handlePut(m *msgPut) { sl.afterL2(m) }

func (sl *l2Slice) put(m *msgPut) {
	e := sl.lookup(m.line)
	busy := e != nil && e.busy != nil
	fromOwner := e != nil && e.owner >= 0 && int(e.owner) == m.from
	// A put can also race with the sender's own in-flight fill: under
	// MMemL1 the directory records ownership only when the unblock is
	// processed, and ensureWay can defer that past the put's arrival
	// (the L1 already has the data straight from the MC, so it may have
	// evicted the line again by then). Acking such a put would destroy
	// the victim buffer and leave a stale owner behind, so the pending
	// requestor is treated exactly like the registered owner.
	fromPending := busy && e.busy.kind != txEvict && e.busy.requestor == m.from
	if busy && (fromOwner || fromPending) {
		// A forward may be racing to this L1; it must keep its victim
		// buffer alive and retry.
		sl.nack(m.line, m.from, false, true)
		return
	}
	if e != nil && !busy {
		ln := sl.c.Lookup(m.line)
		switch {
		case m.dirty && fromOwner:
			sl.mergeDirty(ln, m.data, m.wmask)
			e.hasData = true
			e.owner = -1
		case !m.dirty && fromOwner:
			e.owner = -1 // clean E replacement; L2 data stays valid
		default:
			e.sharers &^= 1 << m.from
		}
	} else if e != nil {
		// Busy, but from a mere sharer: safe to drop the sharer now.
		e.sharers &^= 1 << m.from
	}
	// Stale puts (line already evicted/transferred) are acked and
	// ignored.
	sl.sys.SendCtl(memsys.ClassWB, memsys.BWBCtl, sl.tile, m.from, &msgWBAck{line: m.line})
}
