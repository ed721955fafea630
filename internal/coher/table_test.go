package coher

import (
	"slices"
	"testing"
)

// FuzzTableReference drives a Table and a map[uint32]*V with the same
// random Put/Get/Has/Delete/Len/SortedLines/Range script and requires
// identical answers after every step. Keys come from a small space so
// puts overwrite, deletes hit and miss, and the swap-remove reorders.
func FuzzTableReference(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 1, 1, 3, 1, 4, 0, 5, 0})
	f.Add([]byte{0, 3, 0, 3, 3, 3, 0, 7, 0, 9, 3, 7, 4, 0, 2, 9, 6, 0})
	f.Add([]byte("table reference seed: puts, deletes and lookups"))
	f.Fuzz(func(t *testing.T, script []byte) {
		var tab Table[int]
		ref := map[uint32]*int{}
		vals := make([]int, len(script))
		for i := 0; i+1 < len(script); i += 2 {
			op, key := script[i]%7, uint32(script[i+1]%24)
			switch op {
			case 0, 1: // Put (new value, or replace)
				vals[i] = i
				tab.Put(key, &vals[i])
				ref[key] = &vals[i]
			case 2:
				if got, want := tab.Get(key), ref[key]; got != want {
					t.Fatalf("step %d: Get(%d) = %p, want %p", i, key, got, want)
				}
			case 3:
				tab.Delete(key)
				delete(ref, key)
			case 4:
				_, want := ref[key]
				if got := tab.Has(key); got != want {
					t.Fatalf("step %d: Has(%d) = %v, want %v", i, key, got, want)
				}
			case 5:
				want := make([]uint32, 0, len(ref))
				for k := range ref {
					want = append(want, k)
				}
				slices.Sort(want)
				if got := tab.SortedLines(); !slices.Equal(got, want) {
					t.Fatalf("step %d: SortedLines = %v, want %v", i, got, want)
				}
			case 6:
				seen := map[uint32]bool{}
				tab.Range(func(line uint32, v *int) {
					if seen[line] || ref[line] != v {
						t.Fatalf("step %d: Range visited %d -> %p (seen %v), want %p", i, line, v, seen[line], ref[line])
					}
					seen[line] = true
				})
				if len(seen) != len(ref) {
					t.Fatalf("step %d: Range visited %d entries, want %d", i, len(seen), len(ref))
				}
			}
			if tab.Len() != len(ref) {
				t.Fatalf("step %d: Len = %d, want %d", i, tab.Len(), len(ref))
			}
		}
	})
}

// TestTableZeroAlloc pins the allocation-free table operations: lookups,
// deletes, and puts that fit the capacity an earlier put reached. Pool
// and WriteCombiner steady states ride along.
func TestTableZeroAlloc(t *testing.T) {
	var tab Table[int]
	vals := make([]int, 8)
	for i := range vals {
		tab.Put(uint32(i*3), &vals[i])
	}
	var pool Pool[int]
	pool.Put(new(int))
	wc := NewWriteCombiner()
	for i := uint32(0); i < 4; i++ { // reach the queue and table capacity
		wc.Add(i, 0)
	}
	for i := uint32(0); i < 4; i++ {
		wc.Remove(i)
		wc.PopTimeout()
	}
	var sink *int
	for name, op := range map[string]func(){
		"Get":    func() { sink = tab.Get(9); sink = tab.Get(100) },
		"Has":    func() { _ = tab.Has(21) || tab.Has(100) },
		"Delete": func() { tab.Delete(9); tab.Delete(100); tab.Put(9, &vals[3]) },
		"Put":    func() { tab.Put(12, &vals[0]); tab.Delete(1000); tab.Put(1000, &vals[1]); tab.Delete(1000) },
		"Pool":   func() { pool.Put(pool.Get()) },
		"WriteCombiner": func() {
			e := wc.Add(7, 1)
			e.Mask |= 1
			_ = wc.Oldest()
			wc.Remove(7)
			wc.PopTimeout()
		},
	} {
		if allocs := testing.AllocsPerRun(100, op); allocs != 0 {
			t.Errorf("%s allocates %.1f times per run, want 0", name, allocs)
		}
	}
	_ = sink
	if tab.Len() != 8 {
		t.Fatalf("table has %d entries after balanced ops, want 8", tab.Len())
	}
}

// TestWriteCombinerTimeouts checks the timeout queue: each timeout pops in
// Add order and yields its entry only while that very entry is pending —
// not after a flush, and not when the line was re-added since.
func TestWriteCombinerTimeouts(t *testing.T) {
	wc := NewWriteCombiner()
	a := wc.Add(0x10, 0)
	wc.Add(0x20, 1)
	wc.Remove(0x20)
	wc.Add(0x20, 2) // re-added: the first 0x20 timeout is stale
	if e := wc.PopTimeout(); e != a {
		t.Fatalf("first timeout = %+v, want the 0x10 entry", e)
	}
	if e := wc.PopTimeout(); e != nil {
		t.Fatalf("stale timeout for a re-added line returned %+v", e)
	}
	if e := wc.PopTimeout(); e == nil || e.Line != 0x20 || e.Born != 2 {
		t.Fatalf("third timeout = %+v, want the re-added 0x20 entry", e)
	}
	for i := 0; i < 1000; i++ { // a long busy stretch keeps the queue compact
		wc.Add(uint32(i), int64(i))
		if i >= 10 {
			wc.Remove(uint32(i - 10))
			wc.PopTimeout()
		}
	}
	if len(wc.timeouts)-wc.head != 10 || cap(wc.timeouts) > 256 {
		t.Fatalf("timeout queue holds %d pending in %d slots (cap %d), want 10 in a compact queue",
			len(wc.timeouts)-wc.head, len(wc.timeouts), cap(wc.timeouts))
	}
}
