package waste

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func newMeasuring() *Profiler {
	p := NewProfiler()
	p.StartMeasurement()
	return p
}

func TestL1FSMAllPaths(t *testing.T) {
	p := newMeasuring()

	// load -> Used
	id := p.L1Arrival(0, false)
	p.L1Load(id)
	// store before load -> Write
	id = p.L1Arrival(4, false)
	p.L1Store(id)
	// invalidate before use -> Invalidate
	id = p.L1Arrival(8, false)
	p.L1Invalidate(id)
	// evict before use -> Evict
	id = p.L1Arrival(12, false)
	p.L1Evict(id)
	// already present -> Fetch immediately
	p.L1Arrival(16, true)
	// nothing -> Unevicted at Finish
	p.L1Arrival(20, false)
	p.Finish()

	for _, c := range []Category{Used, Write, Invalidate, Evict, Fetch, Unevicted} {
		if got := p.Count(LevelL1, c); got != 1 {
			t.Errorf("L1 %v = %d, want 1", c, got)
		}
	}
}

func TestClassifyOnce(t *testing.T) {
	p := newMeasuring()
	id := p.L1Arrival(0, false)
	p.L1Load(id)  // Used (terminal)
	p.L1Evict(id) // must not reclassify
	p.L1Store(id)
	if p.Count(LevelL1, Used) != 1 || p.Count(LevelL1, Evict) != 0 || p.Count(LevelL1, Write) != 0 {
		t.Fatal("instance reclassified after terminal state")
	}
}

func TestL2FSMAllPaths(t *testing.T) {
	p := newMeasuring()
	p.L2Served(p.L2Arrival(0, false))
	p.L2Overwritten(p.L2Arrival(4, false))
	p.L2Evict(p.L2Arrival(8, false))
	p.L2Arrival(12, true) // Fetch
	p.L2Arrival(16, false)
	p.Finish()
	for _, c := range []Category{Used, Write, Evict, Fetch, Unevicted} {
		if got := p.Count(LevelL2, c); got != 1 {
			t.Errorf("L2 %v = %d, want 1", c, got)
		}
	}
}

func TestMemFSMUsed(t *testing.T) {
	p := newMeasuring()
	id := p.MemFetch(0, false)
	p.MemAddRef(id) // placed in L2
	p.MemAddRef(id) // copy to L1
	p.MemLoad(id)
	if p.Count(LevelMem, Used) != 1 {
		t.Fatal("mem load not Used")
	}
	// Releasing after classification changes nothing.
	p.MemRelease(id, false)
	p.MemRelease(id, false)
	if p.Count(LevelMem, Evict) != 0 {
		t.Fatal("released copies reclassified a Used instance")
	}
}

func TestMemFSMEvictLastCopy(t *testing.T) {
	p := newMeasuring()
	id := p.MemFetch(0, false)
	p.MemAddRef(id)
	p.MemAddRef(id)
	p.MemRelease(id, false)
	if p.Count(LevelMem, Evict) != 0 {
		t.Fatal("classified Evict while a copy remains")
	}
	p.MemRelease(id, false)
	if p.Count(LevelMem, Evict) != 1 {
		t.Fatal("last-copy eviction not classified Evict")
	}
}

func TestMemFSMInvalidate(t *testing.T) {
	p := newMeasuring()
	id := p.MemFetch(0, false)
	p.MemAddRef(id)
	p.MemRelease(id, true)
	if p.Count(LevelMem, Invalidate) != 1 {
		t.Fatal("invalidated last copy not classified Invalidate")
	}
}

func TestMemStoreClassifiesAllOpenInstances(t *testing.T) {
	p := newMeasuring()
	a := p.MemFetch(64, false)
	b := p.MemFetch(64, false) // second fetch of same address (non-inclusive L2)
	c := p.MemFetch(68, false) // different address
	p.MemAddRef(a)
	p.MemAddRef(b)
	p.MemAddRef(c)
	p.MemStore(64)
	if p.Count(LevelMem, Write) != 2 {
		t.Fatalf("MemStore classified %d instances, want 2", p.Count(LevelMem, Write))
	}
	p.MemLoad(c)
	if p.Count(LevelMem, Used) != 1 {
		t.Fatal("unrelated address affected by MemStore")
	}
}

func TestMemFetchPresentInL2(t *testing.T) {
	p := newMeasuring()
	p.MemFetch(0, true)
	if p.Count(LevelMem, Fetch) != 1 {
		t.Fatal("refetch of L2-present address not Fetch waste")
	}
}

func TestMemExcess(t *testing.T) {
	p := newMeasuring()
	p.MemExcess(0)
	if p.Count(LevelMem, Excess) != 1 {
		t.Fatal("Excess not counted")
	}
}

func TestWarmupNotCounted(t *testing.T) {
	p := NewProfiler() // warm-up mode
	warm := p.L1Arrival(0, false)
	p.StartMeasurement()
	p.L1Load(warm) // classification lands after measurement starts
	if p.TotalWords(LevelL1) != 0 {
		t.Fatal("warm-up instance counted")
	}
	meas := p.L1Arrival(4, false)
	p.L1Load(meas)
	if p.Count(LevelL1, Used) != 1 {
		t.Fatal("measured instance not counted")
	}
}

func TestOnClassifyObserver(t *testing.T) {
	p := newMeasuring()
	var gotLevel Level
	var gotCat Category
	var gotShare float64
	var gotClass uint8
	p.OnClassify(func(level Level, class uint8, cat Category, share float64, measured bool) {
		gotLevel, gotClass, gotCat, gotShare = level, class, cat, share
	})
	id := p.L1Arrival(0, false)
	p.SetTraffic(id, 3, 1.5)
	p.SetTraffic(id, 3, 0.5) // accumulates
	p.L1Load(id)
	if gotLevel != LevelL1 || gotCat != Used || gotShare != 2.0 || gotClass != 3 {
		t.Fatalf("observer got level=%v cat=%v share=%v class=%d", gotLevel, gotCat, gotShare, gotClass)
	}
}

func TestZeroIDIgnored(t *testing.T) {
	p := newMeasuring()
	p.L1Load(0)
	p.MemAddRef(0)
	p.MemRelease(0, false)
	p.SetTraffic(0, 1, 1)
	if p.TotalWords(LevelL1) != 0 {
		t.Fatal("id 0 must be inert")
	}
}

// Property: conservation — every created instance ends in exactly one
// terminal category, so per-level totals equal per-level creations.
func TestConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := newMeasuring()
		created := [3]uint64{}
		var l1IDs, l2IDs, memIDs []uint64
		for i := 0; i < 300; i++ {
			addr := uint32(rng.Intn(64)) * 4
			switch rng.Intn(9) {
			case 0:
				l1IDs = append(l1IDs, p.L1Arrival(addr, rng.Intn(4) == 0))
				created[LevelL1]++
			case 1:
				l2IDs = append(l2IDs, p.L2Arrival(addr, rng.Intn(4) == 0))
				created[LevelL2]++
			case 2:
				id := p.MemFetch(addr, rng.Intn(4) == 0)
				p.MemAddRef(id)
				memIDs = append(memIDs, id)
				created[LevelMem]++
			case 3:
				if len(l1IDs) > 0 {
					p.L1Load(l1IDs[rng.Intn(len(l1IDs))])
				}
			case 4:
				if len(l1IDs) > 0 {
					p.L1Evict(l1IDs[rng.Intn(len(l1IDs))])
				}
			case 5:
				if len(l2IDs) > 0 {
					p.L2Served(l2IDs[rng.Intn(len(l2IDs))])
				}
			case 6:
				if len(memIDs) > 0 {
					p.MemRelease(memIDs[rng.Intn(len(memIDs))], rng.Intn(2) == 0)
				}
			case 7:
				p.MemStore(addr)
			case 8:
				if len(memIDs) > 0 {
					p.MemLoad(memIDs[rng.Intn(len(memIDs))])
				}
			}
		}
		p.Finish()
		for lvl := Level(0); lvl < 3; lvl++ {
			if p.TotalWords(lvl) != created[lvl] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkProfilerLifecycle(b *testing.B) {
	p := newMeasuring()
	for i := 0; i < b.N; i++ {
		id := p.L1Arrival(uint32(i)*4, false)
		if i%2 == 0 {
			p.L1Load(id)
		} else {
			p.L1Evict(id)
		}
	}
}

func TestSnapshot(t *testing.T) {
	p := newMeasuring()
	p.L1Load(p.L1Arrival(0, false))
	p.L2Evict(p.L2Arrival(4, false))
	p.MemExcess(8)
	s := p.Snapshot()
	if s[LevelL1][Used] != 1 || s[LevelL2][Evict] != 1 || s[LevelMem][Excess] != 1 {
		t.Fatalf("snapshot = %v", s)
	}
	// Detached: later events do not mutate the snapshot.
	p.L1Load(p.L1Arrival(12, false))
	if s[LevelL1][Used] != 1 {
		t.Fatal("snapshot not detached")
	}
}

// TestSlotTableBound pins the recycling contract: memory follows the
// open set, not the instances ever created. A million arrive -> classify
// cycles (and a million memory fetches released in pairs) must leave the
// record table at the handful of slots open at once, while Instances
// still counts every creation.
func TestSlotTableBound(t *testing.T) {
	p := newMeasuring()
	const n = 1_000_000
	for i := 0; i < n; i++ {
		id := p.L1Arrival(uint32(i)*4, false)
		if i%2 == 0 {
			p.L1Load(id)
		} else {
			p.L1Evict(id)
		}
		a := p.MemFetch(uint32(i%64)*4, false)
		b := p.MemFetch(uint32(i%64)*4, false)
		p.MemAddRef(a)
		p.MemRelease(a, false)
		p.MemStore(uint32(i%64) * 4) // classifies b
		p.L1Load(id)                 // stale: must not reclassify
		p.MemRelease(b, true)        // stale
	}
	if got := len(p.recs) - 1; got > 2 {
		t.Fatalf("record table grew to %d slots for at most 2 open instances", got)
	}
	if len(p.memChain) != 0 {
		t.Fatalf("%d addresses left in the open-memory chains", len(p.memChain))
	}
	if got := p.Instances(); got != 3*n {
		t.Fatalf("Instances() = %d, want %d created", got, 3*n)
	}
	if p.Count(LevelL1, Used) != n/2 || p.Count(LevelL1, Evict) != n/2 ||
		p.Count(LevelMem, Evict) != n || p.Count(LevelMem, Write) != n {
		t.Fatalf("counts %v", p.Snapshot())
	}
}
