// Package dram models a single-channel DDR3 DRAM with an FR-FCFS memory
// controller and an open-page row-buffer policy, in the spirit of DRAMSim2
// as used by the paper (Table 4.1: DDR3-1066, 8 banks, 2 ranks, FR-FCFS,
// open page).
//
// Timing parameters are expressed in core cycles. At the paper's 2 GHz core
// clock, one DDR3-1066 memory cycle is 3.75 core cycles; the defaults below
// correspond to 7-7-7 device timings and a BL8 burst.
//
// The model supports partial writes (writing a subset of a cache line),
// matching the assumption the thesis makes in §3.1 for the dirty-words-only
// L2 writeback optimization.
package dram

import "repro/internal/sim"

// Config holds channel timing and geometry.
type Config struct {
	TRP      int64  // precharge, core cycles
	TRCD     int64  // activate-to-column, core cycles
	CL       int64  // column access (CAS) latency, core cycles
	TBurst   int64  // data burst occupancy for one 64B line, core cycles
	Banks    int    // banks per channel (ranks * banks/rank)
	RowBytes uint32 // row-buffer size in bytes
}

// DefaultConfig returns DDR3-1066 7-7-7 timings at a 2 GHz core clock.
func DefaultConfig() Config {
	return Config{TRP: 26, TRCD: 26, CL: 26, TBurst: 15, Banks: 16, RowBytes: 8192}
}

// Request is one line-granularity access presented to the controller.
type Request struct {
	Addr  uint32 // byte address (line-aligned by convention)
	Write bool
	Done  func(finish int64) // invoked when the burst completes

	arrive int64
}

type bank struct {
	freeAt  int64
	openRow uint32
	hasRow  bool
}

// schedWindow bounds how many queued requests the FR-FCFS scheduler
// examines per decision, like a real controller's finite scheduling queue.
const schedWindow = 48

// Channel is one memory channel with its own FR-FCFS scheduler.
type Channel struct {
	cfg          Config
	k            *sim.Kernel
	banks        []bank
	busFree      int64
	queue        []*Request
	wakeAt       int64 // cycle of the armed wakeup; 0 = none armed
	rowShift     uint  // log2(RowBytes)
	bankMask     uint32
	schedPending bool

	// Kernel callbacks bound once at construction, so scheduling a
	// decision, a wakeup or a burst completion builds no closure.
	schedFn func()
	wakeFn  func()
	burstFn func(any) // arg: the completing *Request

	// Stats.
	Reads, Writes           uint64
	RowHits, RowMisses      uint64
	BytesRead, BytesWritten uint64
}

// NewChannel creates a channel driven by kernel k. Banks and RowBytes
// must be powers of two (the defaults are).
func NewChannel(k *sim.Kernel, cfg Config) *Channel {
	if cfg.Banks <= 0 {
		cfg = DefaultConfig()
	}
	if cfg.Banks&(cfg.Banks-1) != 0 || cfg.RowBytes&(cfg.RowBytes-1) != 0 {
		panic("dram: Banks and RowBytes must be powers of two")
	}
	shift := uint(0)
	for 1<<shift < cfg.RowBytes {
		shift++
	}
	c := &Channel{
		cfg: cfg, k: k, banks: make([]bank, cfg.Banks),
		rowShift: shift, bankMask: uint32(cfg.Banks - 1),
	}
	c.schedFn, c.wakeFn, c.burstFn = c.deferredSchedule, c.wake, c.burstDone
	return c
}

// QueueLen reports the number of requests waiting to issue.
func (c *Channel) QueueLen() int { return len(c.queue) }

// Submit enqueues a request; Done fires when its data burst completes.
// The scheduling decision is deferred to the end of the current cycle so
// that all same-cycle arrivals compete in one FR-FCFS pick.
func (c *Channel) Submit(r *Request) {
	r.arrive = c.k.Now()
	c.queue = append(c.queue, r)
	if !c.schedPending {
		c.schedPending = true
		c.k.After(0, c.schedFn)
	}
}

// deferredSchedule is the end-of-cycle scheduling decision Submit arms.
func (c *Channel) deferredSchedule() {
	c.schedPending = false
	c.schedule()
}

// wake runs at an armed wakeup's cycle. It disarms c.wakeAt only if that
// is the wakeup now firing; a superseded one leaves the newer arm alone.
func (c *Channel) wake() {
	if c.wakeAt == c.k.Now() {
		c.wakeAt = 0
	}
	c.schedule()
}

// burstDone completes a request's data burst, then lets blocked requests
// compete for the freed bank and bus.
func (c *Channel) burstDone(arg any) {
	if r := arg.(*Request); r.Done != nil {
		r.Done(c.k.Now())
	}
	c.schedule()
}

// bankRow maps an address to (bank index, row id). Consecutive rows stripe
// across banks so streaming accesses overlap bank activity, while lines
// within one row share an open page.
func (c *Channel) bankRow(addr uint32) (int, uint32) {
	rowID := addr >> c.rowShift
	return int(rowID & c.bankMask), rowID >> uintTrailing(c.bankMask)
}

// uintTrailing returns log2(mask+1) for an all-ones mask.
func uintTrailing(mask uint32) uint {
	n := uint(0)
	for mask != 0 {
		mask >>= 1
		n++
	}
	return n
}

// schedule issues every request that can start now, preferring row hits
// (FR-FCFS) within a bounded scheduling window, then arms a wakeup at the
// earliest time another blocked request could start.
func (c *Channel) schedule() {
	now := c.k.Now()
	for {
		window := len(c.queue)
		if window > schedWindow {
			window = schedWindow
		}
		idx := -1
		// First ready row hit in arrival order; otherwise oldest ready.
		for i := 0; i < window; i++ {
			b, row := c.bankRow(c.queue[i].Addr)
			bk := &c.banks[b]
			if bk.freeAt > now {
				continue
			}
			if bk.hasRow && bk.openRow == row {
				idx = i
				break
			}
			if idx == -1 {
				idx = i
			}
		}
		if idx == -1 {
			break
		}
		r := c.queue[idx]
		c.queue = append(c.queue[:idx], c.queue[idx+1:]...)
		c.issue(r, now)
	}
	// Arm a wakeup for the earliest bank-free time among blocked requests.
	if len(c.queue) == 0 {
		return
	}
	window := len(c.queue)
	if window > schedWindow {
		window = schedWindow
	}
	earliest := int64(-1)
	for i := 0; i < window; i++ {
		b, _ := c.bankRow(c.queue[i].Addr)
		if f := c.banks[b].freeAt; earliest == -1 || f < earliest {
			earliest = f
		}
	}
	if earliest <= now { // should not happen, defensive
		earliest = now + 1
	}
	if c.wakeAt != 0 && c.wakeAt > now && c.wakeAt <= earliest {
		return // an earlier (or equal) wakeup is already armed
	}
	c.wakeAt = earliest
	c.k.At(earliest, c.wakeFn)
}

func (c *Channel) issue(r *Request, now int64) {
	b, row := c.bankRow(r.Addr)
	bk := &c.banks[b]
	start := now
	var colReady int64
	switch {
	case bk.hasRow && bk.openRow == row:
		c.RowHits++
		colReady = start
	case bk.hasRow: // conflict: precharge + activate
		c.RowMisses++
		colReady = start + c.cfg.TRP + c.cfg.TRCD
	default: // closed: activate only
		c.RowMisses++
		colReady = start + c.cfg.TRCD
	}
	bk.hasRow, bk.openRow = true, row
	dataStart := colReady + c.cfg.CL
	if dataStart < c.busFree {
		dataStart = c.busFree
	}
	finish := dataStart + c.cfg.TBurst
	c.busFree = finish
	bk.freeAt = finish
	if r.Write {
		c.Writes++
		c.BytesWritten += 64
	} else {
		c.Reads++
		c.BytesRead += 64
	}
	c.k.AtArg(finish, c.burstFn, r)
}
