package waste

// chainTable maps a word address to the first slot of its open LevelMem
// chain. It is open-addressed with linear probing over two parallel
// slices; a zero value marks an empty bucket (slot 0 is never a record).
// It doubles whenever it would pass half full and never shrinks, so its
// size follows the peak number of addresses with an open memory instance
// — the open set, which the record table bounds — and never the
// footprint. Deletion shifts the following probe run back, so there are
// no tombstones.
type chainTable struct {
	keys  []uint32
	vals  []uint32
	n     int  // occupied buckets
	shift uint // 32 - log2(len(keys))
}

const chainMinBits = 6

func (t *chainTable) home(addr uint32) int {
	return int((addr * 0x9e3779b1) >> t.shift) // Fibonacci hashing
}

// get returns addr's chain head, or 0.
func (t *chainTable) get(addr uint32) uint32 {
	if t.n == 0 {
		return 0
	}
	mask := len(t.keys) - 1
	for i := t.home(addr); ; i = (i + 1) & mask {
		if t.vals[i] == 0 {
			return 0
		}
		if t.keys[i] == addr {
			return t.vals[i]
		}
	}
}

// set makes slot (nonzero) addr's chain head.
func (t *chainTable) set(addr, slot uint32) {
	if 2*(t.n+1) > len(t.keys) {
		t.grow()
	}
	mask := len(t.keys) - 1
	i := t.home(addr)
	for ; t.vals[i] != 0; i = (i + 1) & mask {
		if t.keys[i] == addr {
			t.vals[i] = slot
			return
		}
	}
	t.keys[i], t.vals[i] = addr, slot
	t.n++
}

// del removes addr's entry, if any.
func (t *chainTable) del(addr uint32) {
	if t.n == 0 {
		return
	}
	mask := len(t.keys) - 1
	i := t.home(addr)
	for t.keys[i] != addr || t.vals[i] == 0 {
		if t.vals[i] == 0 {
			return
		}
		i = (i + 1) & mask
	}
	t.n--
	// Backward-shift: pull later entries of the probe run into the hole
	// unless their home lies cyclically in (hole, j].
	for j := i; ; {
		j = (j + 1) & mask
		if t.vals[j] == 0 {
			t.vals[i] = 0
			return
		}
		h := t.home(t.keys[j])
		if (i < j && i < h && h <= j) || (i > j && (i < h || h <= j)) {
			continue
		}
		t.keys[i], t.vals[i] = t.keys[j], t.vals[j]
		i = j
	}
}

func (t *chainTable) grow() {
	bits := uint(chainMinBits)
	if len(t.keys) > 0 {
		bits = 33 - t.shift
	}
	old, oldVals := t.keys, t.vals
	t.keys, t.vals = make([]uint32, 1<<bits), make([]uint32, 1<<bits)
	t.shift, t.n = 32-bits, 0
	for i, v := range oldVals {
		if v != 0 {
			t.set(old[i], v)
		}
	}
}
