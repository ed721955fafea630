package bloom

// BankConfig describes the filter banks of §4.4.
type BankConfig struct {
	FiltersPerSlice int // number of Bloom filters at each L2 slice
	Entries         int // entries per filter
	Slices          int // number of L2 slices (tiles)
	Seed            uint64
}

// DefaultBankConfig returns the paper's idealized geometry: 32 filters per
// slice, 512 entries each, one H3 hash. For a 16-tile processor this is
// 32*512*16 bits = 32 KB per L1 and 32*512*8 bits = 16 KB per L2 slice.
func DefaultBankConfig(slices int) BankConfig {
	return BankConfig{FiltersPerSlice: 32, Entries: 512, Slices: slices, Seed: 0xb10f}
}

// L2Bank is the set of counting Bloom filters at one L2 slice. It tracks
// the line addresses that have dirty (registered or modified) words in that
// slice's portion of the address space.
type L2Bank struct {
	cfg     BankConfig
	sel     *H3
	filters []*Counting
}

// NewL2Bank creates the counting-filter bank for one slice.
func NewL2Bank(cfg BankConfig) *L2Bank {
	sel := NewH3(cfg.Seed ^ 0x5e1ec7)
	h := NewH3(cfg.Seed)
	b := &L2Bank{cfg: cfg, sel: sel, filters: make([]*Counting, cfg.FiltersPerSlice)}
	for i := range b.filters {
		b.filters[i] = NewCounting(cfg.Entries, h)
	}
	return b
}

// FilterIndex returns which filter within a slice a line address maps to.
func (b *L2Bank) FilterIndex(line uint32) int {
	return int(b.sel.Hash(line)) % len(b.filters)
}

// Insert records that line now has dirty data in this slice.
func (b *L2Bank) Insert(line uint32) { b.filters[b.FilterIndex(line)].Insert(line) }

// Remove records that line no longer has dirty data in this slice.
func (b *L2Bank) Remove(line uint32) { b.filters[b.FilterIndex(line)].Remove(line) }

// MayContain reports whether line may have dirty data in this slice.
func (b *L2Bank) MayContain(line uint32) bool {
	return b.filters[b.FilterIndex(line)].MayContain(line)
}

// Snapshot returns a plain-filter copy of filter idx, as shipped to an L1
// in a 64-byte Bloom-copy response.
func (b *L2Bank) Snapshot(idx int) *Filter { return b.filters[idx].Snapshot() }

// SizeBytes is the storage footprint of the bank (8-bit counters).
func (b *L2Bank) SizeBytes() int {
	n := 0
	for _, f := range b.filters {
		n += f.SizeBytes()
	}
	return n
}

// L1Bank is one L1 cache's conservative copy of every L2 slice's filters.
// Filters are copied on demand (valid bits track which copies exist), local
// writebacks are inserted eagerly, and everything is cleared at barriers.
// All copies share one flat bit array (filter f of slice s occupies words
// [(s*FiltersPerSlice+f)*words, +words)) and one valid bitset, so a bank
// is two allocations and ClearAll is two clears.
type L1Bank struct {
	cfg     BankConfig
	sel     *H3
	h       *H3
	words   int    // uint64 words per filter
	entries uint32 // bits per filter
	bits    []uint64
	valid   []uint64 // bit s*FiltersPerSlice+f
}

// NewL1Bank creates the L1-side filter copies for all slices.
func NewL1Bank(cfg BankConfig) *L1Bank {
	entries := max(cfg.Entries, 64)
	words := (entries + 63) / 64
	n := cfg.Slices * cfg.FiltersPerSlice
	return &L1Bank{
		cfg:     cfg,
		sel:     NewH3(cfg.Seed ^ 0x5e1ec7),
		h:       NewH3(cfg.Seed),
		words:   words,
		entries: uint32(words * 64),
		bits:    make([]uint64, n*words),
		valid:   make([]uint64, (n+63)/64),
	}
}

// FilterIndex returns the per-slice filter index for a line address.
func (b *L1Bank) FilterIndex(line uint32) int { return int(b.sel.Hash(line)) % b.cfg.FiltersPerSlice }

// copyOf returns the flat index of slice's filter idx.
func (b *L1Bank) copyOf(slice, idx int) int { return slice*b.cfg.FiltersPerSlice + idx }

// bit returns the word index and mask of key's entry in copy c.
func (b *L1Bank) bit(c int, key uint32) (int, uint64) {
	i := b.h.Hash(key) % b.entries
	return c*b.words + int(i>>6), 1 << (i & 63)
}

// Query checks a line address against the copy for the line's home slice.
// valid=false means the copy has not been fetched yet (the caller must
// request a Bloom copy from the L2 before deciding).
func (b *L1Bank) Query(slice int, line uint32) (valid, mayContain bool) {
	c := b.copyOf(slice, b.FilterIndex(line))
	if b.valid[c>>6]&(1<<(c&63)) == 0 {
		return false, true
	}
	w, m := b.bit(c, line)
	return true, b.bits[w]&m != 0
}

// LoadCopy unions a snapshot received from slice's L2 into the local copy
// and marks it valid.
func (b *L1Bank) LoadCopy(slice, idx int, snap *Filter) {
	c := b.copyOf(slice, idx)
	dst := b.bits[c*b.words : (c+1)*b.words]
	if len(snap.bits) != len(dst) {
		panic("bloom: union of mismatched filters")
	}
	for i, w := range snap.bits {
		dst[i] |= w
	}
	b.valid[c>>6] |= 1 << (c & 63)
}

// InsertLocal records a local writeback of line (whose home is slice) so
// the copy stays conservative without refetching.
func (b *L1Bank) InsertLocal(slice int, line uint32) {
	w, m := b.bit(b.copyOf(slice, b.FilterIndex(line)), line)
	b.bits[w] |= m
}

// ClearAll resets every copy and valid bit (done at barriers).
func (b *L1Bank) ClearAll() {
	clear(b.bits)
	clear(b.valid)
}

// SizeBytes is the storage footprint of all copies (1-bit entries).
func (b *L1Bank) SizeBytes() int { return len(b.bits) * 8 }
