package waste

import (
	"math/rand"
	"testing"
)

// TestChainTableReference drives the open-addressed chain table and a Go
// map with the same random set/del sequence over a small key space (so
// probe runs collide, wrap and shift back) and requires identical
// lookups throughout.
func TestChainTableReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var tab chainTable
	ref := map[uint32]uint32{}
	for step := 0; step < 200000; step++ {
		addr := uint32(rng.Intn(300)) * 4
		switch rng.Intn(3) {
		case 0, 1:
			slot := uint32(rng.Intn(1000) + 1)
			tab.set(addr, slot)
			ref[addr] = slot
		default:
			tab.del(addr)
			delete(ref, addr)
		}
		if tab.n != len(ref) {
			t.Fatalf("step %d: %d entries, want %d", step, tab.n, len(ref))
		}
		probe := uint32(rng.Intn(300)) * 4
		if got, want := tab.get(probe), ref[probe]; got != want {
			t.Fatalf("step %d: get(%#x) = %d, want %d", step, probe, got, want)
		}
	}
	for addr, want := range ref {
		if got := tab.get(addr); got != want {
			t.Fatalf("get(%#x) = %d, want %d", addr, got, want)
		}
	}
	if len(tab.keys) > 1024 { // half full at most: 300 keys fit in 1024 buckets
		t.Fatalf("table has %d buckets for a peak of at most 300 keys", len(tab.keys))
	}
}
