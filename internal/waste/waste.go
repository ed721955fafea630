// Package waste implements the paper's detailed waste characterization
// (§4.1): every word moved into the L1, into the L2, or fetched from
// memory becomes an *instance* that is classified by a small finite-state
// machine into one of the categories Used, Write, Fetch, Invalidate,
// Evict, Unevicted (plus Excess for words dropped at the memory controller
// by the L2 Flex optimization).
//
// The three FSMs are those of Figures 4.1 (L1), 4.2 (L2) and 4.3 (memory).
// Memory instances are identified by (address, identifier) pairs and
// reference-counted across all on-chip copies, because a non-inclusive
// DeNovo L2 can hold several copies of the same word from different memory
// fetches at once.
//
// Classification is single-shot: once an instance reaches a terminal
// category it never changes. Words fetched during the warm-up period are
// tracked (so later events resolve) but excluded from the counts.
package waste

import (
	"cmp"
	"fmt"
	"slices"
)

// Category is the terminal classification of a word instance.
type Category uint8

// Classification categories (§4.1).
const (
	Open       Category = iota // not yet classified
	Used                       // read by the program / returned by the L2
	Write                      // overwritten before being used
	Fetch                      // fetched while already present
	Invalidate                 // invalidated by the protocol before use
	Evict                      // evicted before use
	Unevicted                  // still cached, unclassified, at end of run
	Excess                     // fetched from DRAM, dropped at the MC (L2 Flex)
	numCategories
)

// Categories lists the terminal categories in display order.
var Categories = []Category{Used, Fetch, Write, Invalidate, Evict, Unevicted, Excess}

func (c Category) String() string {
	switch c {
	case Open:
		return "Open"
	case Used:
		return "Used"
	case Write:
		return "Write"
	case Fetch:
		return "Fetch"
	case Invalidate:
		return "Invalidate"
	case Evict:
		return "Evict"
	case Unevicted:
		return "Unevicted"
	case Excess:
		return "Excess"
	}
	return fmt.Sprintf("Category(%d)", uint8(c))
}

// Level identifies which hierarchy level an instance was fetched into.
type Level uint8

// Hierarchy levels for instance creation.
const (
	LevelL1 Level = iota
	LevelL2
	LevelMem
	numLevels
)

func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelMem:
		return "Mem"
	}
	return fmt.Sprintf("Level(%d)", uint8(l))
}

// ClassifyFunc observes classifications; the traffic recorder uses it to
// settle deferred Used/Waste flit-hop attribution. share is the pending
// flit-hop share attached via SetTraffic, class its message class tag.
type ClassifyFunc func(level Level, class uint8, cat Category, share float64, measured bool)

// An instance id names one record: its low 32 bits are a slot in the
// profiler's record table, its high 32 bits the slot's generation when the
// record was created. Classification is terminal, so the moment a record
// classifies its slot is freed and its generation bumped: every id still
// held for it (in a cache line, an MSHR, a message in flight) goes stale,
// and every operation on a stale id is a no-op. That is exact, not an
// approximation — an append-only profiler keeps the classified record but
// it is already inert: classify and MemRelease ignore non-Open records,
// MemAddRef and SetTraffic only touch fields nothing reads again. Memory
// therefore follows the live (open) set, not the instances ever created.
//
// Generation aliasing is impossible within a run: a stale id could only
// match again once its slot has been reused 2^32 times, i.e. after more
// than 2^32 instances, and classify panics rather than let a generation
// wrap. Slot 0 is never handed out, so id 0 stays "none".
const slotBits = 32

// inst is one open word instance's record (flagLive), or a free slot on
// the free list.
type inst struct {
	seq   uint64 // creation order: Finish settles open records in it
	addr  uint32
	share float32
	refs  int32  // LevelMem only: live on-chip copies
	gen   uint32 // generation of the slot's current (or next) occupant
	next  uint32 // next slot in the address's open-Mem chain, or on the free list
	level Level
	class uint8 // traffic class tag
	flags uint8
}

const (
	flagMeasured uint8 = 1 << iota
	flagLive
)

// Profiler owns all word instances for one simulation run.
type Profiler struct {
	recs     []inst // slot 0 reserved
	free     uint32 // head of the free-slot list (0 = empty)
	created  uint64
	memChain chainTable // word addr -> first slot of its open LevelMem chain
	counts   [numLevels][numCategories]uint64

	measuring  bool
	onClassify ClassifyFunc
}

// NewProfiler creates an empty profiler (warm-up mode: not measuring).
func NewProfiler() *Profiler {
	return &Profiler{recs: make([]inst, 1)}
}

// live returns id's record, or nil when id is 0 or stale (its instance
// has already classified).
func (p *Profiler) live(id uint64) *inst {
	slot := uint32(id)
	if slot == 0 {
		return nil
	}
	in := &p.recs[slot]
	if in.gen != uint32(id>>slotBits) {
		return nil
	}
	return in
}

// OnClassify installs the classification observer.
func (p *Profiler) OnClassify(f ClassifyFunc) { p.onClassify = f }

// StartMeasurement switches from warm-up to measured mode: instances
// created from now on count toward the category totals.
func (p *Profiler) StartMeasurement() { p.measuring = true }

// Measuring reports whether measurement has started.
func (p *Profiler) Measuring() bool { return p.measuring }

// Count returns the number of measured words classified as cat at level.
func (p *Profiler) Count(level Level, cat Category) uint64 { return p.counts[level][cat] }

// TotalWords returns all measured words fetched into level.
func (p *Profiler) TotalWords(level Level) uint64 {
	var n uint64
	for _, c := range Categories {
		n += p.counts[level][c]
	}
	return n
}

// Instances returns the number of instances created so far, warm-up
// included (telemetry; classified records are recycled, so this is not
// the number held in memory).
func (p *Profiler) Instances() int { return int(p.created) }

func (p *Profiler) new(level Level, addr uint32) (uint64, *inst) {
	slot := p.free
	if slot != 0 {
		p.free = p.recs[slot].next
	} else {
		slot = uint32(len(p.recs))
		p.recs = append(p.recs, inst{})
	}
	in := &p.recs[slot]
	*in = inst{seq: p.created, addr: addr, gen: in.gen, level: level, flags: flagLive}
	if p.measuring {
		in.flags |= flagMeasured
	}
	p.created++
	return uint64(slot) | uint64(in.gen)<<slotBits, in
}

// SetTraffic attaches the deferred flit-hop share and message-class tag to
// an instance; the share is reported to the OnClassify observer when the
// instance settles.
func (p *Profiler) SetTraffic(id uint64, class uint8, share float64) {
	if in := p.live(id); in != nil {
		in.class = class
		in.share += float32(share)
	}
}

// classify settles the live record at slot as cat and frees the slot.
func (p *Profiler) classify(slot uint32, cat Category) {
	in := &p.recs[slot]
	measured := in.flags&flagMeasured != 0
	if measured {
		p.counts[in.level][cat]++
	}
	if p.onClassify != nil {
		p.onClassify(in.level, in.class, cat, float64(in.share), measured)
	}
	if in.level == LevelMem {
		p.unchain(in.addr, slot)
	}
	if in.gen == ^uint32(0) {
		panic(fmt.Sprintf("waste: generation of slot %d would wrap", slot))
	}
	in.gen++
	in.flags = 0
	in.next = p.free
	p.free = slot
}

// settle classifies id as cat if it is still open.
func (p *Profiler) settle(id uint64, cat Category) {
	if p.live(id) != nil {
		p.classify(uint32(id), cat)
	}
}

// --- L1 FSM (Figure 4.1) ---

// L1Arrival records a word arriving at an L1 cache. present reports
// whether the word was already valid there; if so the arrival is
// immediately Fetch waste. The returned id is attached to the cached word.
func (p *Profiler) L1Arrival(addr uint32, present bool) uint64 {
	id, _ := p.new(LevelL1, addr)
	if present {
		p.classify(uint32(id), Fetch)
	}
	return id
}

// L1Load marks the word instance as read by the program (Used).
func (p *Profiler) L1Load(id uint64) { p.settle(id, Used) }

// L1Store marks the word instance overwritten before use (Write).
func (p *Profiler) L1Store(id uint64) { p.settle(id, Write) }

// L1Invalidate marks the instance invalidated before use.
func (p *Profiler) L1Invalidate(id uint64) { p.settle(id, Invalidate) }

// L1Evict marks the instance evicted before use.
func (p *Profiler) L1Evict(id uint64) { p.settle(id, Evict) }

// --- L2 FSM (Figure 4.2) ---

// L2Arrival records a word arriving at an L2 slice from memory.
func (p *Profiler) L2Arrival(addr uint32, present bool) uint64 {
	id, _ := p.new(LevelL2, addr)
	if present {
		p.classify(uint32(id), Fetch)
	}
	return id
}

// L2Served marks the word returned to an L1 as part of a response (Used).
func (p *Profiler) L2Served(id uint64) { p.settle(id, Used) }

// L2Overwritten marks the word overwritten by an L1 writeback (Write).
func (p *Profiler) L2Overwritten(id uint64) { p.settle(id, Write) }

// L2Evict marks the word evicted from the L2 before use.
func (p *Profiler) L2Evict(id uint64) { p.settle(id, Evict) }

// --- Memory FSM (Figure 4.3) ---

// MemFetch records a word of address addr leaving the memory controller
// toward the chip, creating a new (addr, id) instance with zero on-chip
// references. presentInL2 applies the Figure 4.3 "address present in L2"
// check (immediate Fetch classification).
func (p *Profiler) MemFetch(addr uint32, presentInL2 bool) uint64 {
	id, in := p.new(LevelMem, addr)
	if presentInL2 {
		p.classify(uint32(id), Fetch)
		return id
	}
	in.next = p.memChain.get(addr)
	p.memChain.set(addr, uint32(id))
	return id
}

// MemExcess records a word fetched from DRAM and dropped at the MC by the
// L2 Flex filter: it never reaches the chip.
func (p *Profiler) MemExcess(addr uint32) uint64 {
	id, _ := p.new(LevelMem, addr)
	p.classify(uint32(id), Excess)
	return id
}

// MemAddRef notes a new on-chip copy of instance id.
func (p *Profiler) MemAddRef(id uint64) {
	if in := p.live(id); in != nil {
		in.refs++
	}
}

// MemRelease notes the destruction of one on-chip copy (eviction without
// writeback, overwrite, or invalidation). When the last copy of an open
// instance disappears it classifies as Invalidate (if invalidated) or
// Evict.
func (p *Profiler) MemRelease(id uint64, invalidated bool) {
	in := p.live(id)
	if in == nil {
		return
	}
	if in.refs > 0 {
		in.refs--
	}
	if in.refs == 0 {
		if invalidated {
			p.classify(uint32(id), Invalidate)
		} else {
			p.classify(uint32(id), Evict)
		}
	}
}

// MemLoad marks instance id read by a core (Used).
func (p *Profiler) MemLoad(id uint64) { p.settle(id, Used) }

// MemStore classifies every open instance of addr as Write: once any core
// writes the address, the coherence protocol will invalidate or overwrite
// every other on-chip copy (§4.1). The chain's order is not creation order,
// which is harmless: memory-level shares never reach the traffic recorder.
func (p *Profiler) MemStore(addr uint32) {
	for slot := p.memChain.get(addr); slot != 0; slot = p.memChain.get(addr) {
		p.classify(slot, Write) // unchains slot, advancing the head
	}
}

// unchain removes slot from addr's open-Mem chain.
func (p *Profiler) unchain(addr, slot uint32) {
	head := p.memChain.get(addr)
	if head == slot {
		if next := p.recs[slot].next; next != 0 {
			p.memChain.set(addr, next)
		} else {
			p.memChain.del(addr)
		}
		return
	}
	for prev := head; prev != 0; prev = p.recs[prev].next {
		if p.recs[prev].next == slot {
			p.recs[prev].next = p.recs[slot].next
			return
		}
	}
}

// Finish classifies every still-open instance as Unevicted (end of the
// measurement window, Figure 4.1-4.3 terminal edge), in creation order:
// the traffic recorder sums the float shares it is handed, so settling
// them in any other order could change the totals' last bits.
func (p *Profiler) Finish() {
	var open []uint32
	for slot := 1; slot < len(p.recs); slot++ {
		if p.recs[slot].flags&flagLive != 0 {
			open = append(open, uint32(slot))
		}
	}
	slices.SortFunc(open, func(a, b uint32) int { return cmp.Compare(p.recs[a].seq, p.recs[b].seq) })
	for _, slot := range open {
		p.classify(slot, Unevicted)
	}
}

// Snapshot returns the per-level, per-category measured word counts,
// detached from the profiler.
func (p *Profiler) Snapshot() (counts [3][8]uint64) {
	for l := Level(0); l < numLevels; l++ {
		for c := Category(0); c < numCategories; c++ {
			counts[l][c] = p.counts[l][c]
		}
	}
	return counts
}
