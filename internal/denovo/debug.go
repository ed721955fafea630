package denovo

import (
	"fmt"
	"strings"
)

// DebugState renders in-flight protocol state for deadlock diagnostics.
func (s *System) DebugState() string {
	var b strings.Builder
	for t, l1 := range s.l1s {
		if l1.mshrs.Len() == 0 && l1.wc.Len() == 0 && l1.wbBuf.Len() == 0 && l1.pendingRegs == 0 {
			continue
		}
		fmt.Fprintf(&b, "L1[%d]: wc=%d pendingRegs=%d wbBuf=%d drain=%v\n",
			t, l1.wc.Len(), l1.pendingRegs, l1.wbBuf.Len(), l1.drainGate.Armed())
		l1.mshrs.Range(func(key uint32, m *mshr) {
			fmt.Fprintf(&b, "  mshr %#x wanted=%d waiters=%d\n", key, len(m.wanted), len(m.waiters))
			for _, a := range m.wanted {
				fmt.Fprintf(&b, "    want %#x\n", a)
			}
		})
	}
	for t, sl := range s.l2s {
		sl.fetch.Range(func(line uint32, f *l2Fetch) {
			fmt.Fprintf(&b, "L2[%d]: fetch %#x retries=%d\n", t, line, len(f.retry))
		})
		for i, f := range sl.flags {
			if f&lineEvicting != 0 {
				fmt.Fprintf(&b, "L2[%d]: evicting %#x\n", t, i*len(s.l2s)+t)
			}
		}
		sl.foreign.Range(func(line uint32, f *uint8) {
			if *f&lineEvicting != 0 {
				fmt.Fprintf(&b, "L2[%d]: evicting foreign %#x\n", t, line)
			}
		})
	}
	return b.String()
}
