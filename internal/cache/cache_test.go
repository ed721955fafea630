package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGeometry(t *testing.T) {
	c := New(32*1024, 8, 64)
	if c.Sets() != 64 || c.Assoc() != 8 || c.WordsPerLine() != 16 {
		t.Fatalf("geometry = %d sets / %d ways / %d words", c.Sets(), c.Assoc(), c.WordsPerLine())
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-power-of-two sets")
		}
	}()
	New(3*64*5, 5, 64)
}

func TestLookupAllocate(t *testing.T) {
	c := New(1024, 2, 64) // 8 sets
	if c.Lookup(100) != nil {
		t.Fatal("lookup hit in empty cache")
	}
	l := c.Allocate(100)
	if got := c.Lookup(100); got != l {
		t.Fatal("lookup missed allocated line")
	}
	if l.Tag != 100 || !l.Valid {
		t.Fatalf("line tag/valid = %d/%v", l.Tag, l.Valid)
	}
	if c.Occupancy() != 1 {
		t.Fatalf("occupancy = %d", c.Occupancy())
	}
	// Idempotent allocate.
	if c.Allocate(100) != l {
		t.Fatal("re-allocate did not return resident line")
	}
}

func TestLRUVictim(t *testing.T) {
	c := New(2*64, 2, 64) // 1 set, 2 ways
	a := c.Allocate(0)
	b := c.Allocate(1)
	c.Touch(a) // a now MRU; b is LRU
	v := c.Victim(2)
	if v != b {
		t.Fatal("victim is not the LRU line")
	}
	c.Allocate(2)
	if c.Lookup(1) != nil {
		t.Fatal("LRU line not evicted")
	}
	if c.Lookup(0) == nil {
		t.Fatal("MRU line wrongly evicted")
	}
	if c.Evictions != 1 {
		t.Fatalf("evictions = %d", c.Evictions)
	}
	_ = b
}

func TestVictimPrefersInvalid(t *testing.T) {
	c := New(2*64, 2, 64)
	a := c.Allocate(0)
	v := c.Victim(1)
	if v == a || v.Valid {
		t.Fatal("victim should be the invalid way")
	}
}

func TestAllocateResetsWordState(t *testing.T) {
	c := New(2*64, 2, 64)
	l := c.Allocate(0)
	l.WState[3] = 7
	l.Data[3] = 99
	l.Owner[3] = 2
	l.Inst[3] = 55
	l.State = 9
	c.Remove(l)
	l2 := c.Allocate(0)
	if l2.WState[3] != 0 || l2.Data[3] != 0 || l2.Owner[3] != 0 || l2.Inst[3] != 0 || l2.State != 0 {
		t.Fatal("Allocate did not reset line contents")
	}
}

func TestRemove(t *testing.T) {
	c := New(1024, 2, 64)
	l := c.Allocate(5)
	c.Remove(l)
	if c.Lookup(5) != nil || c.Occupancy() != 0 {
		t.Fatal("Remove left the line resident")
	}
	c.Remove(l) // double-remove is a no-op
}

func TestForEach(t *testing.T) {
	c := New(4*64, 2, 64) // 2 sets x 2 ways
	c.Allocate(0)
	c.Allocate(1)
	c.Allocate(2)
	n := 0
	c.ForEach(func(l *Line) { n++ })
	if n != 3 {
		t.Fatalf("ForEach visited %d, want 3", n)
	}
}

func TestSetConflictsOnly(t *testing.T) {
	// Lines mapping to different sets never evict each other.
	c := New(4*64, 1, 64) // 4 sets, direct-mapped
	c.Allocate(0)
	c.Allocate(1)
	c.Allocate(2)
	c.Allocate(3)
	if c.Occupancy() != 4 {
		t.Fatalf("occupancy = %d, want 4 (no conflicts)", c.Occupancy())
	}
	c.Allocate(4) // conflicts with 0
	if c.Lookup(0) != nil {
		t.Fatal("conflicting line not evicted")
	}
	if c.Occupancy() != 4 {
		t.Fatalf("occupancy = %d, want 4", c.Occupancy())
	}
}

// Property: the cache agrees with a reference model (map + per-set LRU
// lists) under a random stream of allocate/remove/touch operations.
// Removed lines keep their stale Tag on the invalid way, so every address
// is checked both ways — resident ones must hit, all others must miss —
// and Occupancy must agree with both the model and a ForEach count.
func TestReferenceModelProperty(t *testing.T) {
	type ref struct {
		order []uint32 // resident line addrs per set, LRU first
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const sets, ways, addrs = 4, 2, 16
		c := New(sets*ways*64, ways, 64)
		refs := make([]ref, sets)
		find := func(r *ref, a uint32) int {
			for i, x := range r.order {
				if x == a {
					return i
				}
			}
			return -1
		}
		for op := 0; op < 400; op++ {
			addr := uint32(rng.Intn(addrs))
			s := addr % sets
			r := &refs[s]
			switch rng.Intn(4) {
			case 0: // allocate
				if i := find(r, addr); i == -1 {
					if len(r.order) == ways { // evict LRU
						victim := r.order[0]
						r.order = r.order[1:]
						if c.Lookup(victim) == nil {
							return false
						}
					}
					r.order = append(r.order, addr)
				} else { // already resident: MRU
					r.order = append(append(r.order[:i:i], r.order[i+1:]...), addr)
				}
				c.Allocate(addr)
			case 1: // touch if resident
				if l := c.Lookup(addr); l != nil {
					c.Touch(l)
					i := find(r, addr)
					r.order = append(append(r.order[:i:i], r.order[i+1:]...), addr)
				}
			case 2: // remove if resident
				if l := c.Lookup(addr); l != nil {
					c.Remove(l)
					i := find(r, addr)
					r.order = append(r.order[:i:i], r.order[i+1:]...)
				}
			case 3: // remove the victim: the LRU line, or an already-invalid way (no-op)
				v := c.Victim(addr)
				if v.Valid {
					if len(r.order) != ways || v.Tag != r.order[0] {
						return false
					}
					r.order = r.order[1:]
				}
				c.Remove(v)
			}
			// Check residency agreement for every address, both ways.
			for a := uint32(0); a < addrs; a++ {
				l := c.Lookup(a)
				if resident := find(&refs[a%sets], a) != -1; resident != (l != nil) {
					return false
				}
				if l != nil && (l.Tag != a || !l.Valid) {
					return false
				}
			}
			total := 0
			for _, rr := range refs {
				total += len(rr.order)
			}
			visited := 0
			c.ForEach(func(*Line) { visited++ })
			if c.Occupancy() != total || visited != total {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLookupHit(b *testing.B) {
	c := New(32*1024, 8, 64)
	for i := uint32(0); i < 512; i++ {
		c.Allocate(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(uint32(i) & 511)
	}
}

func BenchmarkAllocateEvict(b *testing.B) {
	c := New(32*1024, 8, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Allocate(uint32(i) & 4095)
	}
}
