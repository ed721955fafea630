package mesi

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/coher"
	"repro/internal/memsys"
)

// maxStoreTxns bounds how many distinct lines a core's store buffer can be
// fetching concurrently (the 32-entry buffer itself bounds total pending
// writes, §4.2).
const maxStoreTxns = 8

// loadWaiter is a core load blocked on an in-flight line fill.
type loadWaiter struct {
	word int
	done func(val uint32, s memsys.Sample)
}

// mshr tracks one outstanding L1 transaction for a line.
type mshr struct {
	line    uint32
	isStore bool // GetX/Upgrade for the store buffer
	upgrade bool // issued as an Upgrade (may convert to GetX on retry)
	tIssue  int64

	loadWaiters []loadWaiter

	dataArrived bool
	needAcks    int
	gotAcks     int
	state       uint8
	data        [lineWords]uint32
	minst       [lineWords]uint64
	transfer    bool
	fromMem     bool
	tAtMC       int64
	tDram       int64
	hopsIn      int
	class       memsys.Class
}

// wbEntry is a victim buffer entry: an evicted line awaiting its
// writeback acknowledgement. It can still service forwarded requests.
type wbEntry struct {
	line    uint32
	dirty   bool
	aborted bool // ownership moved away; stop retrying
	data    [lineWords]uint32
	wmask   uint16
	minst   [lineWords]uint64
}

type l1Cache struct {
	sys  *System
	tile int
	c    *cache.Cache

	mshrs coher.Table[mshr]
	wbBuf coher.Table[wbEntry]

	sb           coher.StoreBuffer
	storeTxns    int
	storeUnstall func()
	drainGate    coher.DrainGate

	// The core's load waiting out the L1 access latency (a core has one
	// load outstanding at most), and the kernel callback that resumes it,
	// bound once so a load schedules no closure.
	ldAddr uint32
	ldDone func(uint32, memsys.Sample)
	ldFn   func()
}

func newL1(s *System, tile int) *l1Cache {
	cfg := s.Env.Cfg
	l := &l1Cache{
		sys:   s,
		tile:  tile,
		c:     cache.New(cfg.L1Bytes, cfg.L1Assoc, memsys.LineBytes),
		mshrs: coher.NewTable[mshr](),
		wbBuf: coher.NewTable[wbEntry](),
		sb:    coher.NewStoreBuffer(cfg.StoreBufferEntries),
	}
	l.ldFn = l.accessL1
	return l
}

func (l *l1Cache) env() *memsys.Env { return l.sys.Env }

// --- core-facing operations ---

// load begins a blocking load. done fires when the value is available.
func (l *l1Cache) load(addr uint32, done func(uint32, memsys.Sample)) {
	if l.ldDone != nil {
		panic(fmt.Sprintf("mesi: core %d issued a load while one is pending", l.tile))
	}
	l.ldAddr, l.ldDone = addr, done
	env := l.env()
	env.K.After(env.Cfg.L1Latency, l.ldFn)
}

// accessL1 performs the pending load's L1 access, one L1 latency after
// issue.
func (l *l1Cache) accessL1() {
	done := l.ldDone
	l.ldDone = nil
	l.loadAttempt(l.ldAddr, l.env().K.Now(), done)
}

func (l *l1Cache) loadAttempt(addr uint32, tIssue int64, done func(uint32, memsys.Sample)) {
	env := l.env()
	// Store-buffer forwarding: the newest pending write to this word wins.
	if val, ok := l.sb.Forward(addr); ok {
		done(val, memsys.Sample{Point: memsys.PointL1})
		return
	}
	line, w := memsys.LineOf(addr), memsys.WordIndex(addr)
	if ln := l.c.Lookup(line); ln != nil {
		l.c.Touch(ln)
		env.Prof.L1Load(ln.Inst[w])
		env.Prof.MemLoad(ln.MInst[w])
		done(ln.Data[w], memsys.Sample{Point: memsys.PointL1})
		return
	}
	// A line being written back cannot be re-read until the writeback is
	// acknowledged; retry shortly.
	if l.wbBuf.Has(line) {
		l.sys.RetryAfter(func() { l.loadAttempt(addr, tIssue, done) })
		return
	}
	if m := l.mshrs.Get(line); m != nil {
		m.loadWaiters = append(m.loadWaiters, loadWaiter{w, done})
		return
	}
	m := &mshr{line: line, tIssue: tIssue}
	m.loadWaiters = append(m.loadWaiters, loadWaiter{w, done})
	l.mshrs.Put(line, m)
	l.sendGetS(m)
}

func (l *l1Cache) sendGetS(m *mshr) {
	home := l.env().Cfg.HomeTile(m.line)
	l.sys.SendCtl(memsys.ClassLD, memsys.BReqCtl, l.tile, home, &msgGetS{line: m.line, from: l.tile})
}

// storePush enqueues a non-blocking write; false when the buffer is full.
func (l *l1Cache) storePush(addr, val uint32) bool {
	if !l.sb.Push(addr, val) {
		return false
	}
	l.pumpStores()
	return true
}

// pumpStores issues store transactions for pending lines, up to the
// concurrency bound.
func (l *l1Cache) pumpStores() {
	env := l.env()
	seen := map[uint32]bool{}
	entries := l.sb.Entries()
	for i := 0; i < len(entries); i++ {
		line := memsys.LineOf(entries[i].Addr)
		if seen[line] {
			continue
		}
		seen[line] = true
		if l.mshrs.Has(line) {
			continue // a transaction for this line is already in flight
		}
		if l.wbBuf.Has(line) {
			continue // wait for the writeback ack, then retry
		}
		if ln := l.c.Lookup(line); ln != nil && (ln.State == stM || ln.State == stE) {
			l.applyStores(ln)
			i = -1 // sb mutated; restart scan
			entries = l.sb.Entries()
			seen = map[uint32]bool{}
			continue
		}
		if l.storeTxns >= maxStoreTxns {
			break
		}
		l.storeTxns++
		m := &mshr{line: line, isStore: true, tIssue: env.K.Now()}
		l.mshrs.Put(line, m)
		if ln := l.c.Lookup(line); ln != nil && ln.State == stS {
			m.upgrade = true
			home := env.Cfg.HomeTile(line)
			l.sys.SendCtl(memsys.ClassST, memsys.BReqCtl, l.tile, home, &msgUpgrade{line: line, from: l.tile})
		} else {
			l.sendGetX(m)
		}
	}
	l.drainGate.TryFire(l.drained())
}

func (l *l1Cache) sendGetX(m *mshr) {
	m.upgrade = false
	home := l.env().Cfg.HomeTile(m.line)
	l.sys.SendCtl(memsys.ClassST, memsys.BReqCtl, l.tile, home, &msgGetX{line: m.line, from: l.tile})
}

// applyStores retires every buffered write targeting a line the core now
// owns (M), then wakes the driver if buffer space freed.
func (l *l1Cache) applyStores(ln *cache.Line) {
	env := l.env()
	ln.State = stM
	l.sb.RetireLine(ln.Tag, memsys.LineOf, func(addr, val uint32) {
		w := memsys.WordIndex(addr)
		env.Prof.L1Store(ln.Inst[w])
		env.Prof.MemStore(addr)
		if ln.MInst[w] != 0 {
			env.Prof.MemRelease(ln.MInst[w], false)
			ln.MInst[w] = 0
		}
		ln.Data[w] = val
		ln.WState[w] |= wDirty
	})
	l.c.Touch(ln)
	if l.storeUnstall != nil {
		// Deferred: the driver's retry re-enters Store, which must not
		// recurse into this apply path synchronously.
		fn := l.storeUnstall
		env.K.After(0, fn)
	}
	l.drainGate.TryFire(l.drained())
}

// drain registers a barrier-drain continuation: it fires once the store
// buffer is empty and no store transactions remain.
func (l *l1Cache) drain(done func()) {
	l.drainGate.Arm(done)
	l.drainGate.TryFire(l.drained())
}

func (l *l1Cache) drained() bool { return l.sb.Empty() && l.storeTxns == 0 }

// --- protocol message handlers ---

func (l *l1Cache) handleData(m *msgData) {
	ms := l.mshrs.Get(m.line)
	if ms == nil {
		panic(fmt.Sprintf("mesi: tile %d data without mshr line %#x", l.tile, m.line))
	}
	ms.dataArrived = true
	ms.state = m.state
	ms.needAcks += m.acks
	ms.data = m.data
	ms.minst = m.minst
	ms.transfer = m.transfer
	ms.fromMem = m.fromMem
	ms.tAtMC, ms.tDram, ms.hopsIn = m.tAtMC, m.tDram, m.hops
	ms.class = m.class
	l.tryCompleteFill(ms)
}

func (l *l1Cache) handleUpgAck(m *msgUpgAck) {
	ms := l.mshrs.Get(m.line)
	if ms == nil {
		panic("mesi: upgrade ack without mshr")
	}
	// The line must still be present in S (invalidations racing ahead of
	// the upgrade are NACKed at the directory instead).
	ms.dataArrived = true
	ms.state = stM
	ms.needAcks += m.acks
	l.tryCompleteFill(ms)
}

func (l *l1Cache) handleInvAck(m *msgInvAck) {
	ms := l.mshrs.Get(m.line)
	if ms == nil {
		panic("mesi: inv ack without mshr")
	}
	ms.gotAcks++
	l.tryCompleteFill(ms)
}

// tryCompleteFill finishes a transaction once data and all acks arrived.
func (l *l1Cache) tryCompleteFill(ms *mshr) {
	if !ms.dataArrived || ms.gotAcks < ms.needAcks {
		return
	}
	env := l.env()
	if !ms.upgrade && !l.canAllocate(ms.line) {
		// Every way is held by an in-flight upgrade; retry the fill once
		// those transactions finish.
		l.sys.RetryAfter(func() { l.tryCompleteFill(ms) })
		return
	}
	l.mshrs.Delete(ms.line)

	var ln *cache.Line
	if ms.upgrade {
		ln = l.c.Lookup(ms.line)
		if ln == nil {
			panic("mesi: upgraded line vanished")
		}
		ln.State = stM
	} else {
		ln = l.allocate(ms.line)
		ln.State = ms.state
		insts := make([]uint64, lineWords)
		for w := 0; w < lineWords; w++ {
			a := memsys.AddrOf(ms.line, w)
			ln.Data[w] = ms.data[w]
			ln.MInst[w] = ms.minst[w]
			id := env.Prof.L1Arrival(a, false)
			ln.Inst[w] = id
			insts[w] = id
			if !ms.transfer {
				env.Prof.MemAddRef(ms.minst[w])
			}
		}
		env.Traffic.Data(ms.class, ms.hopsIn, insts)
	}

	// Directory unblock. MMemL1 load fills from memory carry the data to
	// the L2 (unblock+data, profiled as load traffic).
	home := env.Cfg.HomeTile(ms.line)
	if l.sys.opt.MemToL1 && ms.fromMem && !ms.isStore {
		hops := l.sys.CtlHops(memsys.ClassLD, memsys.BRespCtl, l.tile, home)
		l.sys.SendData(l.tile, home, lineWords, &msgUnblock{
			line: ms.line, from: l.tile, withData: true,
			data: ms.data, minst: ms.minst, hops: hops,
		})
	} else {
		l.sys.SendCtl(memsys.ClassOVH, memsys.BOvhUnblock, l.tile, home, &msgUnblock{line: ms.line, from: l.tile})
	}

	sample := memsys.Sample{Point: memsys.PointOnChip}
	if ms.fromMem {
		sample = memsys.Sample{
			Point:  memsys.PointMemory,
			ToMC:   ms.tAtMC - ms.tIssue,
			Mem:    ms.tDram - ms.tAtMC,
			FromMC: env.K.Now() - ms.tDram,
		}
	}
	for _, wtr := range ms.loadWaiters {
		env.Prof.L1Load(ln.Inst[wtr.word])
		env.Prof.MemLoad(ln.MInst[wtr.word])
		wtr.done(ln.Data[wtr.word], sample)
	}
	if ms.isStore {
		l.storeTxns--
		l.applyStores(ln)
		l.pumpStores()
	}
}

func (l *l1Cache) handleNack(m *msgNack) {
	env := l.env()
	if m.isPut {
		wb := l.wbBuf.Get(m.line)
		if wb == nil {
			return
		}
		if wb.aborted {
			// Ownership moved while the put was in flight; nothing to
			// retry and no ack will come for the stale put.
			l.wbBuf.Delete(m.line)
			l.pumpStores()
			return
		}
		l.sys.RetryAfter(func() { l.sendPut(wb) })
		return
	}
	ms := l.mshrs.Get(m.line)
	if ms == nil {
		return // transaction already satisfied (stale NACK)
	}
	l.sys.NackBackoff(m.from, l.tile, func() {
		if l.mshrs.Get(m.line) != ms {
			return
		}
		if !ms.isStore {
			l.sendGetS(ms)
			return
		}
		// A NACKed upgrade retries as an upgrade only while the S copy
		// survives; otherwise it converts to a full GetX.
		if ms.upgrade {
			if ln := l.c.Lookup(m.line); ln != nil && ln.State == stS {
				home := env.Cfg.HomeTile(m.line)
				l.sys.SendCtl(memsys.ClassST, memsys.BReqCtl, l.tile, home, &msgUpgrade{line: m.line, from: l.tile})
				return
			}
		}
		l.sendGetX(ms)
	})
}

// handleInv invalidates this L1's shared copy and acknowledges.
func (l *l1Cache) handleInv(m *msgInv) {
	env := l.env()
	if ln := l.c.Lookup(m.line); ln != nil {
		coher.ReleaseL1Line(env, ln, false, true)
		l.c.Remove(ln)
	}
	if m.toL2 {
		// L2-eviction invalidation: acknowledge the home slice.
		l.sys.SendCtl(memsys.ClassOVH, memsys.BOvhAck, l.tile, m.ackTo, &msgRecallResp{line: m.line, from: l.tile})
		return
	}
	l.sys.SendCtl(memsys.ClassOVH, memsys.BOvhAck, l.tile, m.ackTo, &msgInvAck{line: m.line, from: l.tile})
}

// handleFwd services a forwarded GetS/GetX as the owner.
func (l *l1Cache) handleFwd(m *msgFwd) {
	env := l.env()
	class := memsys.ClassLD
	if m.excl {
		class = memsys.ClassST
	}
	var data [lineWords]uint32
	var minst [lineWords]uint64
	var wmask uint16
	if ln := l.c.Lookup(m.line); ln != nil {
		data, wmask = coher.SnapshotData(ln), coher.DirtyMask(ln, wDirty)
		minst = coher.SnapshotMInst(ln)
		if m.excl {
			// Ownership transfer: local copy conceptually moves.
			for w := 0; w < lineWords; w++ {
				env.Prof.L1Invalidate(ln.Inst[w])
			}
			l.c.Remove(ln)
		} else {
			ln.State = stS
		}
	} else if wb := l.wbBuf.Get(m.line); wb != nil {
		data, wmask, minst = wb.data, wb.wmask, wb.minst
		if m.excl {
			wb.aborted = true // ownership moved; the retried Put is stale
		} else {
			wb.dirty = false // data handed to the L2 via the downgrade WB
		}
	} else {
		panic(fmt.Sprintf("mesi: tile %d forwarded for line %#x it does not hold", l.tile, m.line))
	}

	hops := l.sys.CtlHops(class, memsys.BRespCtl, l.tile, m.requestor)
	st := stS
	if m.excl {
		st = stM
	}
	l.sys.SendData(l.tile, m.requestor, lineWords, &msgData{
		line: m.line, state: st, data: data, minst: minst,
		transfer: m.excl, tIssue: m.tIssue, hops: hops, class: class,
	})
	if !m.excl {
		// Downgrade writeback carries the (possibly dirty) data to the L2.
		home := env.Cfg.HomeTile(m.line)
		dirty := coher.Popcount16(wmask)
		h2 := l.sys.CtlHops(memsys.ClassWB, memsys.BWBCtl, l.tile, home)
		env.Traffic.WBData(false, h2, dirty, lineWords-dirty)
		l.sys.SendData(l.tile, home, lineWords, &msgDowngradeWB{
			line: m.line, from: l.tile, data: data, wmask: wmask,
		})
	}
}

// handleRecall surrenders a line for an inclusive L2 eviction.
func (l *l1Cache) handleRecall(m *msgRecall) {
	env := l.env()
	resp := &msgRecallResp{line: m.line, from: l.tile}
	if ln := l.c.Lookup(m.line); ln != nil {
		if ln.State == stM {
			resp.hasData = true
			resp.data, resp.wmask = coher.SnapshotData(ln), coher.DirtyMask(ln, wDirty)
		}
		coher.ReleaseL1Line(env, ln, false, true)
		l.c.Remove(ln)
	} else if wb := l.wbBuf.Get(m.line); wb != nil {
		if wb.dirty {
			resp.hasData = true
			resp.data, resp.wmask = wb.data, wb.wmask
		}
		wb.aborted = true
	}
	home := env.Cfg.HomeTile(m.line)
	if resp.hasData {
		dirty := coher.Popcount16(resp.wmask)
		hops := l.sys.CtlHops(memsys.ClassWB, memsys.BWBCtl, l.tile, home)
		env.Traffic.WBData(false, hops, dirty, lineWords-dirty)
		l.sys.SendData(l.tile, home, lineWords, resp)
	} else {
		l.sys.SendCtl(memsys.ClassOVH, memsys.BOvhAck, l.tile, home, resp)
	}
}

func (l *l1Cache) handleWBAck(m *msgWBAck) {
	l.wbBuf.Delete(m.line)
	l.pumpStores() // lines blocked on the victim buffer can proceed now
}

// --- eviction ---

// canAllocate reports whether a fill for line can find a victim way that
// is not pinned by an in-flight upgrade transaction.
func (l *l1Cache) canAllocate(line uint32) bool {
	return l.c.VictimWhere(line, func(v *cache.Line) bool {
		return l.mshrs.Get(v.Tag) == nil
	}) != nil
}

// allocate returns a line for a fill, evicting the victim through the
// victim buffer if necessary. Lines pinned by in-flight upgrades are never
// chosen (callers check canAllocate first).
func (l *l1Cache) allocate(line uint32) *cache.Line {
	env := l.env()
	victim := l.c.VictimWhere(line, func(v *cache.Line) bool {
		return l.mshrs.Get(v.Tag) == nil
	})
	if victim.Valid {
		vline := victim.Tag
		wb := &wbEntry{line: vline, dirty: victim.State == stM}
		wb.data, wb.wmask = coher.SnapshotData(victim), coher.DirtyMask(victim, wDirty)
		wb.minst = coher.SnapshotMInst(victim)
		coher.ReleaseL1Line(env, victim, true, false)
		l.c.Remove(victim)
		l.wbBuf.Put(vline, wb)
		l.sendPut(wb)
	}
	return l.c.Allocate(line)
}

func (l *l1Cache) sendPut(wb *wbEntry) {
	if wb.aborted {
		l.wbBuf.Delete(wb.line)
		return
	}
	env := l.env()
	home := env.Cfg.HomeTile(wb.line)
	msg := &msgPut{line: wb.line, from: l.tile, dirty: wb.dirty}
	if wb.dirty {
		msg.data, msg.wmask, msg.minst = wb.data, wb.wmask, wb.minst
		dirty := coher.Popcount16(wb.wmask)
		hops := l.sys.CtlHops(memsys.ClassWB, memsys.BWBCtl, l.tile, home)
		env.Traffic.WBData(false, hops, dirty, lineWords-dirty)
		l.sys.SendData(l.tile, home, lineWords, msg)
	} else {
		// Clean replacement notice: pure protocol overhead (§5.2.4).
		l.sys.SendCtl(memsys.ClassOVH, memsys.BOvhWBCtl, l.tile, home, msg)
	}
}
