package dram

import (
	"testing"

	"repro/internal/sim"
)

// TestChannelSteadyStateZeroAlloc pins the allocation-free steady state of
// a channel: once the request queue and the kernel's event slice are warm,
// a round of Submit -> schedule -> issue -> Done over reused Requests —
// row hits, row conflicts, bank wakeups and writes included — must
// perform zero heap allocations.
func TestChannelSteadyStateZeroAlloc(t *testing.T) {
	k := &sim.Kernel{}
	c := NewChannel(k, DefaultConfig())
	completed := 0
	onDone := func(int64) { completed++ }
	reqs := make([]Request, 40)
	for i := range reqs {
		// Rows stripe over banks; pairs of lines share a row, and every
		// fifth request conflicts with an open row of the same bank.
		addr := uint32(i/2)*8192 + uint32(i%2)*64
		if i%5 == 4 {
			addr += 16 * 8192
		}
		reqs[i] = Request{Addr: addr, Write: i%4 == 0, Done: onDone}
	}
	round := func() {
		for i := range reqs {
			c.Submit(&reqs[i])
		}
		k.Run()
	}
	round() // warm the queue and the event heap
	round()
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Fatalf("steady-state channel round allocates %.1f times, want 0", allocs)
	}
	if want := 53 * len(reqs); completed != want {
		t.Fatalf("%d requests completed, want %d", completed, want)
	}
	if c.RowHits == 0 || c.RowMisses == 0 {
		t.Fatalf("schedule exercised %d row hits / %d misses; want both", c.RowHits, c.RowMisses)
	}
}
