package waste

import (
	"cmp"
	"math"
	"slices"
	"testing"
)

// refProfiler is the append-only profiler the recycling one replaced: one
// record per instance for the whole run, ids handed out in creation order,
// open memory instances indexed by address in per-address slices. It is
// the oracle for FuzzProfilerRecycle.
type refProfiler struct {
	recs       []refInst // index = id; id 0 reserved
	openByAddr map[uint32][]uint64
	counts     [numLevels][numCategories]uint64
	measuring  bool
	onClassify ClassifyFunc

	open, peakOpen int // open records now / at most
}

type refInst struct {
	addr     uint32
	share    float32
	refs     int32
	level    Level
	cat      Category
	class    uint8
	measured bool
}

func newRefProfiler() *refProfiler {
	return &refProfiler{recs: make([]refInst, 1), openByAddr: map[uint32][]uint64{}}
}

func (p *refProfiler) new(level Level, addr uint32) uint64 {
	p.recs = append(p.recs, refInst{addr: addr, level: level, measured: p.measuring})
	p.open++
	p.peakOpen = max(p.peakOpen, p.open)
	return uint64(len(p.recs) - 1)
}

func (p *refProfiler) classify(id uint64, cat Category) {
	if id == 0 {
		return
	}
	in := &p.recs[id]
	if in.cat != Open {
		return
	}
	in.cat = cat
	p.open--
	if in.measured {
		p.counts[in.level][cat]++
	}
	if p.onClassify != nil {
		p.onClassify(in.level, in.class, cat, float64(in.share), in.measured)
	}
	if in.level == LevelMem {
		ids := p.openByAddr[in.addr]
		for i, x := range ids {
			if x == id {
				ids[i] = ids[len(ids)-1]
				ids = ids[:len(ids)-1]
				break
			}
		}
		if len(ids) == 0 {
			delete(p.openByAddr, in.addr)
		} else {
			p.openByAddr[in.addr] = ids
		}
	}
}

func (p *refProfiler) arrival(level Level, addr uint32, present bool) uint64 {
	id := p.new(level, addr)
	if present {
		p.classify(id, Fetch)
	}
	return id
}

func (p *refProfiler) memFetch(addr uint32, presentInL2 bool) uint64 {
	id := p.new(LevelMem, addr)
	if presentInL2 {
		p.classify(id, Fetch)
		return id
	}
	p.openByAddr[addr] = append(p.openByAddr[addr], id)
	return id
}

func (p *refProfiler) memExcess(addr uint32) uint64 {
	id := p.new(LevelMem, addr)
	p.classify(id, Excess)
	return id
}

func (p *refProfiler) addRef(id uint64) {
	if id != 0 {
		p.recs[id].refs++
	}
}

func (p *refProfiler) release(id uint64, invalidated bool) {
	if id == 0 {
		return
	}
	in := &p.recs[id]
	if in.refs > 0 {
		in.refs--
	}
	if in.refs == 0 && in.cat == Open {
		if invalidated {
			p.classify(id, Invalidate)
		} else {
			p.classify(id, Evict)
		}
	}
}

func (p *refProfiler) memStore(addr uint32) {
	for _, id := range append([]uint64(nil), p.openByAddr[addr]...) {
		p.classify(id, Write)
	}
}

func (p *refProfiler) setTraffic(id uint64, class uint8, share float64) {
	if id != 0 {
		p.recs[id].class = class
		p.recs[id].share += float32(share)
	}
}

func (p *refProfiler) finish() {
	for id := uint64(1); id < uint64(len(p.recs)); id++ {
		if p.recs[id].cat == Open {
			p.classify(id, Unevicted)
		}
	}
}

// classifyCall is one OnClassify notification, the share compared by bits.
type classifyCall struct {
	level     Level
	class     uint8
	cat       Category
	shareBits uint64
	measured  bool
}

func recordCalls(log *[]classifyCall) ClassifyFunc {
	return func(level Level, class uint8, cat Category, share float64, measured bool) {
		*log = append(*log, classifyCall{level, class, cat, math.Float64bits(share), measured})
	}
}

func compareCalls(a, b classifyCall) int {
	if c := cmp.Compare(a.class, b.class); c != 0 {
		return c
	}
	if c := cmp.Compare(a.shareBits, b.shareBits); c != 0 {
		return c
	}
	if a.measured != b.measured {
		if a.measured {
			return 1
		}
		return -1
	}
	return 0
}

// FuzzProfilerRecycle runs a byte-coded script of profiler operations
// against both the recycling Profiler and refProfiler, and requires the
// same observable behaviour: identical Snapshot, identical Instances, and
// an identical OnClassify call sequence (level, class, category, share
// bits, measured). Operations pick their target among every id ever
// returned, so stale ids of recycled slots are exercised as often as live
// ones. The one permitted difference is the order within a single
// MemStore: the recycling profiler walks its per-address chain, not
// creation order, so each MemStore's calls — all LevelMem Write, whose
// shares the traffic recorder ignores — are compared as a sorted batch.
// The record table must also stay exactly as large as the peak number of
// simultaneously open instances. The checked-in corpus under
// testdata/fuzz seeds long mixed scripts, store-heavy memory scripts and
// scripts that call Finish mid-run.
func FuzzProfilerRecycle(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{9, 0, 2, 0, 2, 0, 3, 0, 3, 1, 11, 0, 12, 0, 13, 2, 8, 0, 15, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		got, want := NewProfiler(), newRefProfiler()
		var gotLog, wantLog []classifyCall
		got.OnClassify(recordCalls(&gotLog))
		want.onClassify = recordCalls(&wantLog)

		type idPair struct{ got, want uint64 }
		ids := []idPair{{0, 0}} // id 0 ("none") is a legal target
		for i := 0; i+1 < len(script); i += 2 {
			op, arg := script[i]%16, script[i+1]
			addr := uint32(arg%8) * 4
			flag := arg&0x80 != 0
			pick := ids[len(ids)-1-int(arg)%len(ids)] // recent ids are mostly live, older ones stale
			switch op {
			case 0:
				ids = append(ids, idPair{got.L1Arrival(addr, flag), want.arrival(LevelL1, addr, flag)})
			case 1:
				ids = append(ids, idPair{got.L2Arrival(addr, flag), want.arrival(LevelL2, addr, flag)})
			case 2:
				ids = append(ids, idPair{got.MemFetch(addr, flag), want.memFetch(addr, flag)})
			case 3:
				ids = append(ids, idPair{got.MemExcess(addr), want.memExcess(addr)})
			case 4:
				got.L1Load(pick.got)
				want.classify(pick.want, Used)
			case 5:
				got.L1Store(pick.got)
				want.classify(pick.want, Write)
			case 6:
				got.L1Evict(pick.got)
				want.classify(pick.want, Evict)
			case 7:
				got.L1Invalidate(pick.got)
				want.classify(pick.want, Invalidate)
			case 8:
				got.L2Served(pick.got)
				want.classify(pick.want, Used)
			case 9:
				got.MemAddRef(pick.got)
				want.addRef(pick.want)
			case 10:
				got.MemRelease(pick.got, flag)
				want.release(pick.want, flag)
			case 11:
				g, w := len(gotLog), len(wantLog)
				got.MemStore(addr)
				want.memStore(addr)
				slices.SortFunc(gotLog[g:], compareCalls)
				slices.SortFunc(wantLog[w:], compareCalls)
			case 12:
				share := float64(arg) / 3 // inexact in float32: accumulation order shows
				got.SetTraffic(pick.got, arg%5, share)
				want.setTraffic(pick.want, arg%5, share)
			case 13:
				got.StartMeasurement()
				want.measuring = true
			case 14:
				got.Finish()
				want.finish()
			case 15:
				got.L2Evict(pick.got)
				want.classify(pick.want, Evict)
			}
		}
		got.Finish()
		want.finish()

		if got.Snapshot() != want.counts {
			t.Fatalf("snapshot %v, reference %v", got.Snapshot(), want.counts)
		}
		if got.Instances() != len(want.recs)-1 {
			t.Fatalf("Instances() = %d, reference created %d", got.Instances(), len(want.recs)-1)
		}
		if !slices.Equal(gotLog, wantLog) {
			t.Fatalf("OnClassify sequences differ:\n got  %v\n want %v", gotLog, wantLog)
		}
		if len(got.recs)-1 != want.peakOpen {
			t.Fatalf("record table holds %d slots, peak open instances %d", len(got.recs)-1, want.peakOpen)
		}
	})
}
