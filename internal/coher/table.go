package coher

import (
	"math/bits"
	"slices"
)

// Table is a pending-transaction table keyed by line address: MSHRs,
// victim (writeback) buffers, write-combining entries, L2 fetch tables.
// Every such table is small and bounded by the hardware it models (a few
// outstanding misses, at most a write-combining table's 32 entries), so
// it is two parallel slices scanned linearly: no hashing, and no
// allocation once the slices reach their peak size. Any iteration whose
// side effects reach the event kernel must happen in sorted line order
// (SortedLines); the slice order is an artefact of deletions.
//
// The zero value is an empty table.
type Table[V any] struct {
	keys []uint32
	vals []*V
}

// NewTable returns an empty table.
func NewTable[V any]() Table[V] { return Table[V]{} }

// find returns the index of line's entry, or -1.
func (t *Table[V]) find(line uint32) int {
	for i, k := range t.keys {
		if k == line {
			return i
		}
	}
	return -1
}

// Get returns the entry for line, or nil.
func (t *Table[V]) Get(line uint32) *V {
	if i := t.find(line); i >= 0 {
		return t.vals[i]
	}
	return nil
}

// Has reports whether line has an entry.
func (t *Table[V]) Has(line uint32) bool { return t.find(line) >= 0 }

// Put installs an entry for line, replacing any existing one.
func (t *Table[V]) Put(line uint32, v *V) {
	if i := t.find(line); i >= 0 {
		t.vals[i] = v
		return
	}
	t.keys = append(t.keys, line)
	t.vals = append(t.vals, v)
}

// Delete removes line's entry (the last entry moves into its place).
func (t *Table[V]) Delete(line uint32) {
	i := t.find(line)
	if i < 0 {
		return
	}
	last := len(t.keys) - 1
	t.keys[i], t.vals[i] = t.keys[last], t.vals[last]
	t.vals[last] = nil // drop the reference for the collector
	t.keys, t.vals = t.keys[:last], t.vals[:last]
}

// Len returns the number of entries.
func (t *Table[V]) Len() int { return len(t.keys) }

// SortedLines returns the keys in ascending order (deterministic
// iteration for flushes and drains).
func (t *Table[V]) SortedLines() []uint32 {
	lines := slices.Clone(t.keys)
	slices.Sort(lines)
	return lines
}

// Range visits entries in table order. Only for side-effect-free or
// order-independent uses (diagnostics, invariant checks, minimum
// searches with a total tie-break); simulation-visible iteration must
// use SortedLines.
func (t *Table[V]) Range(f func(line uint32, v *V)) {
	for i, line := range t.keys {
		f(line, t.vals[i])
	}
}

// Pool is a free list of records (MSHRs, directory transactions, victim
// buffer entries) so a steady-state simulation recycles them instead of
// allocating one per transaction. Get hands back a previously Put record
// as it was left: the caller resets every field it relies on, which lets
// a record keep the capacity of its slices across reuses.
type Pool[V any] struct {
	free []*V
}

// Get returns a recycled record, or a new zero one.
func (p *Pool[V]) Get() *V {
	if n := len(p.free); n > 0 {
		v := p.free[n-1]
		p.free = p.free[:n-1]
		return v
	}
	return new(V)
}

// Put returns a record to the free list. The caller must hold no other
// reference it will use again.
func (p *Pool[V]) Put(v *V) { p.free = append(p.free, v) }

// Popcount16 counts the set bits of a word mask.
func Popcount16(m uint16) int { return bits.OnesCount16(m) }

// SortU32 sorts a slice of word addresses in place.
func SortU32(s []uint32) { slices.Sort(s) }

// ContainsU32 reports whether s contains v.
func ContainsU32(s []uint32, v uint32) bool { return slices.Contains(s, v) }
