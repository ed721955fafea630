package coher

// WCEntry is one write-combining table entry (§4.2): registrations for a
// line batched until the line fills, a timeout expires, the line is
// evicted, or a barrier drains the table. ID is unique per Add, so a
// recycled entry is never mistaken for the one a timeout was armed for.
type WCEntry struct {
	Line uint32
	Mask uint16
	Born int64
	ID   uint64
}

// WriteCombiner is the bounded write-combining table. The flush policy
// (what message a flush sends) belongs to the protocol; the table only
// manages entries deterministically. Entries are recycled: a *WCEntry is
// valid until its line is removed.
type WriteCombiner struct {
	entries Table[WCEntry]
	pool    Pool[WCEntry]
	nextID  uint64

	// One timeout per Add, in Add order. Every timeout has the same
	// delay, so the kernel fires them in exactly this order and the
	// protocol's single bound timeout handler pops the front.
	timeouts []wcTimeout
	head     int
}

type wcTimeout struct {
	line uint32
	id   uint64
}

// NewWriteCombiner returns an empty table.
func NewWriteCombiner() WriteCombiner { return WriteCombiner{} }

// Get returns line's entry, or nil.
func (c *WriteCombiner) Get(line uint32) *WCEntry { return c.entries.Get(line) }

// Add installs a fresh entry for line, stamped with the current time, and
// queues its timeout (see PopTimeout).
func (c *WriteCombiner) Add(line uint32, now int64) *WCEntry {
	c.nextID++
	e := c.pool.Get()
	*e = WCEntry{Line: line, Born: now, ID: c.nextID}
	c.entries.Put(line, e)
	c.timeouts = append(c.timeouts, wcTimeout{line, e.ID})
	return e
}

// PopTimeout consumes the oldest queued timeout. It returns the entry the
// timeout was armed for if that entry is still pending, and nil if it was
// flushed or evicted meanwhile. The protocol calls it once per expired
// timeout, each timeout having been scheduled with the same delay right
// after its Add.
func (c *WriteCombiner) PopTimeout() *WCEntry {
	t := c.timeouts[c.head]
	c.head++
	if c.head == len(c.timeouts) {
		c.timeouts, c.head = c.timeouts[:0], 0
	} else if c.head >= 64 && c.head*2 >= len(c.timeouts) {
		n := copy(c.timeouts, c.timeouts[c.head:])
		c.timeouts, c.head = c.timeouts[:n], 0
	}
	if e := c.entries.Get(t.line); e != nil && e.ID == t.id {
		return e
	}
	return nil
}

// Remove drops line's entry (flushed or evicted) and recycles it.
func (c *WriteCombiner) Remove(line uint32) {
	if e := c.entries.Get(line); e != nil {
		c.entries.Delete(line)
		c.pool.Put(e)
	}
}

// Len returns the number of pending entries.
func (c *WriteCombiner) Len() int { return c.entries.Len() }

// Oldest returns the entry to flush when the table is full: lowest birth
// time, ties broken by line address (deterministic in any table order).
func (c *WriteCombiner) Oldest() *WCEntry {
	var oldest *WCEntry
	for _, e := range c.entries.vals {
		if oldest == nil || e.Born < oldest.Born ||
			(e.Born == oldest.Born && e.Line < oldest.Line) {
			oldest = e
		}
	}
	return oldest
}

// SortedLines returns pending lines in ascending order (barrier drains
// flush in deterministic line order).
func (c *WriteCombiner) SortedLines() []uint32 { return c.entries.SortedLines() }
