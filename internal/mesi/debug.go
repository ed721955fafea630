package mesi

import (
	"fmt"
	"strings"

	"repro/internal/memsys"
)

// DebugState renders in-flight protocol state, used by tests to diagnose
// deadlocks.
func (s *System) DebugState() string {
	var b strings.Builder
	for t, l1 := range s.l1s {
		if l1.mshrs.Len() == 0 && l1.wbBuf.Len() == 0 && l1.sb.Empty() {
			continue
		}
		fmt.Fprintf(&b, "L1[%d]: sb=%d storeTxns=%d drainPending=%v\n",
			t, l1.sb.Len(), l1.storeTxns, l1.drainGate.Armed())
		l1.mshrs.Range(func(line uint32, m *mshr) {
			fmt.Fprintf(&b, "  mshr %#x store=%v upg=%v dataArrived=%v acks=%d/%d waiters=%d\n",
				line, m.isStore, m.upgrade, m.dataArrived, m.gotAcks, m.needAcks, len(m.loadWaiters))
		})
		l1.wbBuf.Range(func(line uint32, wb *wbEntry) {
			fmt.Fprintf(&b, "  wbBuf %#x dirty=%v aborted=%v\n", line, wb.dirty, wb.aborted)
		})
	}
	for t, sl := range s.l2s {
		for i := range sl.dir {
			if e := &sl.dir[i]; e.busy != nil {
				fmt.Fprintf(&b, "L2[%d]: line %#x busy kind=%d req=%d unb=%v dwn=%v acks=%d\n",
					t, i*len(s.l2s)+t, e.busy.kind, e.busy.requestor, e.busy.needUnblock, e.busy.needDowngrade, e.busy.pendingAcks)
			}
		}
	}
	return b.String()
}

// DumpWord renders the coherence state of one word across the system,
// used to diagnose functional (oracle) failures.
func (s *System) DumpWord(addr uint32) string {
	env := s.Env
	line := memsys.LineOf(addr)
	w := memsys.WordIndex(addr)
	var b strings.Builder
	fmt.Fprintf(&b, "word %#x (line %#x w%d): mem=%d\n", addr, line, w, env.MemRead(addr))
	home := s.l2s[env.Cfg.HomeTile(line)]
	if e := home.lookup(line); e != nil {
		fmt.Fprintf(&b, "  dir: owner=%d sharers=%016x hasData=%v busy=%v\n", e.owner, e.sharers, e.hasData, e.busy != nil)
	} else {
		fmt.Fprintf(&b, "  dir: no entry\n")
	}
	if ln := home.c.Lookup(line); ln != nil {
		fmt.Fprintf(&b, "  L2: val=%d dirty=%v\n", ln.Data[w], ln.WState[w]&wDirty != 0)
	}
	for t, l1 := range s.l1s {
		if ln := l1.c.Lookup(line); ln != nil {
			fmt.Fprintf(&b, "  L1[%d]: state=%d val=%d dirty=%v\n", t, ln.State, ln.Data[w], ln.WState[w]&wDirty != 0)
		}
		if wb := l1.wbBuf.Get(line); wb != nil {
			fmt.Fprintf(&b, "  L1[%d] wbBuf: dirty=%v aborted=%v val=%d\n", t, wb.dirty, wb.aborted, wb.data[w])
		}
		for _, e := range l1.sb.Entries() {
			if e.Addr == addr {
				fmt.Fprintf(&b, "  L1[%d] sb: val=%d\n", t, e.Val)
			}
		}
	}
	return b.String()
}
