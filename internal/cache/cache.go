// Package cache provides set-associative cache arrays with per-word
// coherence state, per-word data values, and LRU replacement.
//
// The array is protocol-agnostic: a line carries a protocol-defined
// per-line state byte and a per-word state byte, plus per-word 32-bit data
// values and per-word waste-profiling instance ids (see internal/waste).
// Both MESI (line-granularity states) and DeNovo (word-granularity states)
// build on it.
package cache

// Line is one cache line. The per-word slices are fixed windows into the
// cache's shared per-field arrays, sized to the configured words per line
// and reused across occupancies.
type Line struct {
	Tag    uint32 // line address (byte address >> lineShift); stale once !Valid
	Valid  bool
	State  uint8    // protocol-defined per-line state
	WState []uint8  // protocol-defined per-word state
	Data   []uint32 // per-word values (functional simulation)
	Owner  []uint8  // per-word auxiliary field (e.g. DeNovo registrant id)
	Inst   []uint64 // per-word waste-profiling instance ids (0 = none)
	MInst  []uint64 // per-word memory-fetch instance ids (Figure 4.3)
	Region uint8    // region id of the request that allocated the line
	lru    uint64
}

// Cache is a set-associative array. Lines are stored by value, set-major:
// set s owns lines[s*assoc : (s+1)*assoc]. There is no address index; a
// lookup scans the set's ways (at most 16 in any configuration), matching
// valid lines only, since an invalidated way keeps its stale Tag.
type Cache struct {
	lines     []Line
	assoc     int
	numSets   uint32
	wordsPer  int
	valid     int // valid lines
	lruClock  uint64
	Evictions uint64
}

// New creates a cache of sizeBytes capacity with the given associativity
// and line size. sizeBytes/assoc/lineBytes must divide evenly and the set
// count must be a power of two.
func New(sizeBytes, assoc, lineBytes int) *Cache {
	lines := sizeBytes / lineBytes
	numSets := lines / assoc
	if numSets <= 0 || numSets&(numSets-1) != 0 {
		panic("cache: set count must be a positive power of two")
	}
	c := &Cache{
		lines:    make([]Line, lines),
		assoc:    assoc,
		numSets:  uint32(numSets),
		wordsPer: lineBytes / 4,
	}
	wp := c.wordsPer
	wstate := make([]uint8, lines*wp)
	data := make([]uint32, lines*wp)
	owner := make([]uint8, lines*wp)
	inst := make([]uint64, lines*wp)
	minst := make([]uint64, lines*wp)
	for i := range c.lines {
		lo, hi := i*wp, (i+1)*wp
		c.lines[i] = Line{
			WState: wstate[lo:hi:hi],
			Data:   data[lo:hi:hi],
			Owner:  owner[lo:hi:hi],
			Inst:   inst[lo:hi:hi],
			MInst:  minst[lo:hi:hi],
		}
	}
	return c
}

// WordsPerLine returns words per line.
func (c *Cache) WordsPerLine() int { return c.wordsPer }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return int(c.numSets) }

// Assoc returns the associativity.
func (c *Cache) Assoc() int { return c.assoc }

func (c *Cache) setOf(lineAddr uint32) []Line {
	s := int(lineAddr&(c.numSets-1)) * c.assoc
	return c.lines[s : s+c.assoc]
}

// Lookup returns the resident line for lineAddr, or nil. It does not touch
// LRU state; call Touch on a hit that should refresh recency.
func (c *Cache) Lookup(lineAddr uint32) *Line {
	set := c.setOf(lineAddr)
	for i := range set {
		if l := &set[i]; l.Valid && l.Tag == lineAddr {
			return l
		}
	}
	return nil
}

// Touch marks a line most recently used.
func (c *Cache) Touch(l *Line) {
	c.lruClock++
	l.lru = c.lruClock
}

// Victim returns the line that Allocate would evict for lineAddr: the
// invalid way if one exists (returned with Valid=false), else the LRU way.
// It never allocates. Callers use it to initiate writebacks before calling
// Allocate.
func (c *Cache) Victim(lineAddr uint32) *Line {
	set := c.setOf(lineAddr)
	var victim *Line
	for i := range set {
		l := &set[i]
		if !l.Valid {
			return l
		}
		if victim == nil || l.lru < victim.lru {
			victim = l
		}
	}
	return victim
}

// VictimWhere is like Victim but only considers valid lines for which ok
// returns true (used to skip lines with in-flight directory transactions).
// An invalid way is always acceptable. It returns nil when every way is
// valid and rejected.
func (c *Cache) VictimWhere(lineAddr uint32, ok func(*Line) bool) *Line {
	set := c.setOf(lineAddr)
	var victim *Line
	for i := range set {
		l := &set[i]
		if !l.Valid {
			return l
		}
		if !ok(l) {
			continue
		}
		if victim == nil || l.lru < victim.lru {
			victim = l
		}
	}
	return victim
}

// Allocate installs lineAddr into the set, evicting the victim if needed.
// It returns the (reset) line. The caller must have handled any writeback
// for the victim first (see Victim). Word state, data, owner and instance
// slices are zeroed; Valid is set and LRU refreshed.
func (c *Cache) Allocate(lineAddr uint32) *Line {
	if l := c.Lookup(lineAddr); l != nil {
		c.Touch(l)
		return l
	}
	l := c.Victim(lineAddr)
	if l.Valid {
		c.Evictions++
	} else {
		c.valid++
	}
	l.Tag = lineAddr
	l.Valid = true
	l.State = 0
	l.Region = 0
	clear(l.WState)
	clear(l.Data)
	clear(l.Owner)
	clear(l.Inst)
	clear(l.MInst)
	c.Touch(l)
	return l
}

// Remove invalidates a resident line (protocol invalidation or recall).
// The way keeps its stale Tag; only Valid lines are ever matched.
func (c *Cache) Remove(l *Line) {
	if !l.Valid {
		return
	}
	l.Valid = false
	c.valid--
}

// Occupancy returns the number of valid lines.
func (c *Cache) Occupancy() int { return c.valid }

// ForEach visits every valid line, set by set. The visitor must not
// allocate or remove lines; it may mutate word state (used for
// self-invalidation sweeps).
func (c *Cache) ForEach(f func(*Line)) {
	for i := range c.lines {
		if l := &c.lines[i]; l.Valid {
			f(l)
		}
	}
}
