package memsys

import (
	"testing"
	"testing/quick"

	"repro/internal/mesh"
	"repro/internal/waste"
)

func TestAddressHelpers(t *testing.T) {
	if LineOf(0) != 0 || LineOf(63) != 0 || LineOf(64) != 1 {
		t.Fatal("LineOf wrong")
	}
	if WordIndex(0) != 0 || WordIndex(4) != 1 || WordIndex(63) != 15 {
		t.Fatal("WordIndex wrong")
	}
	if AddrOf(1, 2) != 64+8 {
		t.Fatal("AddrOf wrong")
	}
	if WordAddr(7) != 4 {
		t.Fatal("WordAddr wrong")
	}
}

func TestAddrRoundTripProperty(t *testing.T) {
	f := func(a uint32) bool {
		w := WordAddr(a)
		return AddrOf(LineOf(w), WordIndex(w)) == w
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultConfigMatchesTable41(t *testing.T) {
	c := Default()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Tiles != 16 || c.L1Bytes != 32*1024 || c.L1Assoc != 8 {
		t.Fatal("L1 config differs from Table 4.1")
	}
	if c.L2SliceBytes != 256*1024 || c.L2Assoc != 16 {
		t.Fatal("L2 config differs from Table 4.1")
	}
	if c.LinkLatency != 3 || c.MaxDataFlits != 4 || c.MaxDataWords() != 16 {
		t.Fatal("network config differs from Table 4.1")
	}
	if len(c.MCTiles) != 4 {
		t.Fatal("corner MCs missing")
	}
	if c.StoreBufferEntries != 32 || c.WriteCombineEntries != 32 || c.WriteCombineTimeout != 10000 {
		t.Fatal("protocol knobs differ from §4.2")
	}
}

func TestScaled(t *testing.T) {
	c := Default().Scaled(4)
	if c.L1Bytes != 8*1024 || c.L2SliceBytes != 64*1024 {
		t.Fatalf("scaled caches = %d/%d", c.L1Bytes, c.L2SliceBytes)
	}
	if c.L1Assoc != 8 || c.Tiles != 16 {
		t.Fatal("Scaled changed associativity or tiles")
	}
	// Scaling never produces a cache smaller than one set.
	tiny := Default().Scaled(1 << 20)
	if tiny.L1Bytes < tiny.L1Assoc*LineBytes {
		t.Fatal("over-scaled L1")
	}
}

func TestHomeTileAndChannel(t *testing.T) {
	c := Default()
	seen := map[int]bool{}
	for line := uint32(0); line < 64; line++ {
		h := c.HomeTile(line)
		if h < 0 || h >= 16 {
			t.Fatalf("home %d out of range", h)
		}
		seen[h] = true
		ch := c.Channel(line)
		if ch < 0 || ch >= 4 {
			t.Fatalf("channel %d out of range", ch)
		}
		if mc := c.MCTile(line); mc != c.MCTiles[ch] {
			t.Fatal("MCTile/Channel mismatch")
		}
	}
	if len(seen) != 16 {
		t.Fatalf("line interleaving reaches %d tiles, want 16", len(seen))
	}
}

func TestDataFlits(t *testing.T) {
	cases := []struct{ words, flits int }{{1, 1}, {4, 1}, {5, 2}, {16, 4}, {0, 0}}
	for _, c := range cases {
		if got := DataFlits(c.words); got != c.flits {
			t.Errorf("DataFlits(%d) = %d, want %d", c.words, got, c.flits)
		}
	}
}

func TestRegionTable(t *testing.T) {
	regions := []Region{
		{ID: 1, Name: "a", Base: 0, Size: 256},
		{ID: 2, Name: "b", Base: 1024, Size: 512},
	}
	rt, err := NewRegionTable(regions)
	if err != nil {
		t.Fatal(err)
	}
	if r := rt.ByAddr(100); r == nil || r.ID != 1 {
		t.Fatal("ByAddr(100) wrong")
	}
	if r := rt.ByAddr(256); r != nil {
		t.Fatal("gap address resolved to a region")
	}
	if r := rt.ByAddr(1024 + 511); r == nil || r.ID != 2 {
		t.Fatal("ByAddr end of b wrong")
	}
	if rt.ByID(2) == nil || rt.ByID(9) != nil {
		t.Fatal("ByID wrong")
	}
}

func TestRegionTableOverlapRejected(t *testing.T) {
	_, err := NewRegionTable([]Region{
		{ID: 1, Base: 0, Size: 100},
		{ID: 2, Base: 50, Size: 100},
	})
	if err == nil {
		t.Fatal("overlap not rejected")
	}
}

func TestCommWords(t *testing.T) {
	r := Region{ID: 1, Base: 0, Size: 1024, StrideWords: 8, CommOffsets: []uint16{0, 2, 5}}
	// addr 100 -> element 3 (bytes 96..127): words 96, 104, 116.
	got := r.CommWords(100)
	want := []uint32{96, 104, 116}
	if len(got) != len(want) {
		t.Fatalf("CommWords = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CommWords = %v, want %v", got, want)
		}
	}
	// Unstructured region: just the word itself.
	u := Region{ID: 2, Base: 0, Size: 64}
	if g := u.CommWords(9); len(g) != 1 || g[0] != 8 {
		t.Fatalf("unstructured CommWords = %v", g)
	}
}

func TestCommWordsClipped(t *testing.T) {
	r := Region{ID: 1, Base: 0, Size: 40, StrideWords: 8, CommOffsets: []uint16{0, 7}}
	// Element 1 starts at byte 32; offset 7 would be byte 60, outside Size 40.
	got := r.CommWords(36)
	if len(got) != 1 || got[0] != 32 {
		t.Fatalf("clipped CommWords = %v", got)
	}
}

func TestTrafficCtlAndTotals(t *testing.T) {
	prof := waste.NewProfiler()
	tr := NewTraffic(prof)
	tr.StartMeasurement()
	tr.Ctl(ClassLD, BReqCtl, 1, 3)
	tr.Ctl(ClassOVH, BOvhNack, 1, 2)
	if tr.Get(ClassLD, BReqCtl) != 3 {
		t.Fatal("Ctl flit-hops wrong")
	}
	if tr.ClassTotal(ClassOVH) != 2 || tr.Total() != 5 {
		t.Fatal("totals wrong")
	}
	// Zero-hop messages cost nothing.
	tr.Ctl(ClassLD, BReqCtl, 1, 0)
	if tr.Total() != 5 {
		t.Fatal("0-hop message counted")
	}
}

func TestTrafficDeferredAttribution(t *testing.T) {
	prof := waste.NewProfiler()
	tr := NewTraffic(prof)
	prof.StartMeasurement()
	tr.StartMeasurement()

	// A 5-word LD response to L1 over 2 hops: data flits = 2, so data
	// flit-hops = 4. Word shares: 5 * (2/4) = 2.5; filler = 4 - 2.5 = 1.5.
	ids := make([]uint64, 5)
	for i := range ids {
		ids[i] = prof.L1Arrival(uint32(i*4), false)
	}
	tr.Data(ClassLD, 2, ids)
	if got := tr.Get(ClassLD, BRespCtl); got != 1.5 {
		t.Fatalf("filler = %v, want 1.5", got)
	}
	// Classify: 2 used, 3 evicted.
	prof.L1Load(ids[0])
	prof.L1Load(ids[1])
	prof.L1Evict(ids[2])
	prof.L1Evict(ids[3])
	prof.L1Evict(ids[4])
	if got := tr.Get(ClassLD, BRespL1Used); got != 1.0 {
		t.Fatalf("L1 used = %v, want 1.0", got)
	}
	if got := tr.Get(ClassLD, BRespL1Waste); got != 1.5 {
		t.Fatalf("L1 waste = %v, want 1.5", got)
	}
}

func TestTrafficWarmupExcluded(t *testing.T) {
	prof := waste.NewProfiler()
	tr := NewTraffic(prof)
	// warm-up: not measuring
	id := prof.L1Arrival(0, false)
	tr.Data(ClassLD, 4, []uint64{id})
	tr.StartMeasurement()
	prof.StartMeasurement()
	prof.L1Load(id) // classification of a warm-up instance
	if tr.Total() != 0 {
		t.Fatalf("warm-up data counted: %v", tr.Total())
	}
}

func TestWBData(t *testing.T) {
	prof := waste.NewProfiler()
	tr := NewTraffic(prof)
	tr.StartMeasurement()
	// 3 dirty + 2 clean words over 4 hops to memory: data flits = 2 => 8
	// data flit-hops. dirty share 3/4*4=3, clean 2/4*4=2, filler 8-5=3.
	tr.WBData(true, 4, 3, 2)
	if tr.Get(ClassWB, BWBMemUsed) != 3 || tr.Get(ClassWB, BWBMemWaste) != 2 {
		t.Fatalf("WB used/waste = %v/%v", tr.Get(ClassWB, BWBMemUsed), tr.Get(ClassWB, BWBMemWaste))
	}
	if tr.Get(ClassWB, BWBCtl) != 3 {
		t.Fatalf("WB filler = %v, want 3", tr.Get(ClassWB, BWBCtl))
	}
	// 4 dirty words over 1 hop: exactly one full data flit-hop.
	tr.WBData(false, 1, 4, 0)
	if tr.Get(ClassWB, BWBL2Used) != 1 {
		t.Fatal("L2 WB used wrong")
	}
}

func TestWasteShare(t *testing.T) {
	prof := waste.NewProfiler()
	tr := NewTraffic(prof)
	prof.StartMeasurement()
	tr.StartMeasurement()
	a := prof.L1Arrival(0, false)
	b := prof.L1Arrival(4, false)
	tr.Data(ClassLD, 4, []uint64{a, b}) // 2 words * 1 flit-hop share each, filler 2
	prof.L1Load(a)
	prof.L1Evict(b)
	// used=1, waste=1, respctl filler=2 → waste share = 1/4.
	if got := tr.WasteShare(); got != 0.25 {
		t.Fatalf("WasteShare = %v, want 0.25", got)
	}
}

func TestTimeBreakdownAddStall(t *testing.T) {
	var tb TimeBreakdown
	tb.AddStall(10, Sample{Point: PointOnChip})
	if tb.OnChip != 10 {
		t.Fatal("on-chip stall not recorded")
	}
	tb.AddStall(100, Sample{Point: PointMemory, ToMC: 10, Mem: 30, FromMC: 10})
	if tb.ToMC != 20 || tb.Mem != 60 || tb.FromMC != 20 {
		t.Fatalf("memory stall split = %d/%d/%d", tb.ToMC, tb.Mem, tb.FromMC)
	}
	if tb.Total() != 110 {
		t.Fatalf("total = %d", tb.Total())
	}
	// Missing decomposition falls back to Mem.
	tb = TimeBreakdown{}
	tb.AddStall(50, Sample{Point: PointMemory})
	if tb.Mem != 50 {
		t.Fatal("fallback not applied")
	}
}

func TestEnvConstruction(t *testing.T) {
	cfg := Default()
	e, err := NewEnv(cfg, 4096, []Region{{ID: 1, Base: 0, Size: 4096}})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Chans) != 4 || len(e.Mem) != 1024 {
		t.Fatal("env sizing wrong")
	}
	e.MemWrite(100, 7)
	if e.MemRead(100) != 7 {
		t.Fatal("backing store broken")
	}
	if e.Mesh.Tiles() != 16 {
		t.Fatal("mesh sizing wrong")
	}
}

func TestEnvRejectsBadConfig(t *testing.T) {
	cfg := Default()
	cfg.Tiles = 15
	if _, err := NewEnv(cfg, 64, nil); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestInComm(t *testing.T) {
	r := Region{ID: 1, Base: 64, Size: 4096, StrideWords: 24,
		CommOffsets: []uint16{0, 1, 2, 7}}
	// Element 0 starts at byte 64: offsets 0,1,2,7 are addrs 64,68,72,92.
	for _, a := range []uint32{64, 68, 72, 92} {
		if !r.InComm(a) {
			t.Errorf("InComm(%#x) = false, want true", a)
		}
	}
	for _, a := range []uint32{76, 96, 64 + 8*4} {
		if r.InComm(a) {
			t.Errorf("InComm(%#x) = true, want false", a)
		}
	}
	// Offsets past the stride (prefetch into the next record) still match
	// their in-record position.
	pre := Region{ID: 2, Base: 0, Size: 4096, StrideWords: 12,
		CommOffsets: []uint16{0, 12}}
	if !pre.InComm(0) || !pre.InComm(48) {
		t.Error("prefetch offsets must map back into the record")
	}
	// Unstructured regions have no communication region.
	u := Region{ID: 3, Base: 0, Size: 64}
	if u.InComm(0) {
		t.Error("unstructured region reported a comm region")
	}
}

func TestConfigTopologyValidation(t *testing.T) {
	cfg := Default()
	for _, topo := range []string{"", "mesh", "ring", "torus"} {
		cfg.Topology = topo
		if err := cfg.Validate(); err != nil {
			t.Errorf("topology %q rejected: %v", topo, err)
		}
	}
	cfg.Topology = "hypercube"
	if err := cfg.Validate(); err == nil {
		t.Error("unknown topology accepted")
	}
}

// Regression for the silent dateline imbalance: Config documents "min 2"
// VCs but odd counts used to pass straight into allocVC's vcs/2 split,
// giving class 0 fewer buffers (VCs=3 -> classes of 1 and 2). Validate
// must reject them loudly; even counts >= 2 and the 0 default stay legal.
func TestConfigVCValidation(t *testing.T) {
	cfg := Default()
	cfg.Router = "vc"
	for _, vcs := range []int{0, 2, 4, 8} {
		cfg.VCs = vcs
		if err := cfg.Validate(); err != nil {
			t.Errorf("VCs=%d rejected: %v", vcs, err)
		}
	}
	for _, vcs := range []int{1, 3, 5, 7, -2} {
		cfg.VCs = vcs
		if err := cfg.Validate(); err == nil {
			t.Errorf("VCs=%d accepted; the dateline split needs an even count >= 2", vcs)
		}
	}
	// The credit records index VCs in 16 bits: the limit itself is legal,
	// anything above it must fail before a simulation wraps the index.
	cfg.VCs = mesh.MaxVCs
	if err := cfg.Validate(); err != nil {
		t.Errorf("VCs=%d rejected: %v", cfg.VCs, err)
	}
	for _, vcs := range []int{mesh.MaxVCs + 2, 70000} {
		cfg.VCs = vcs
		if err := cfg.Validate(); err == nil {
			t.Errorf("VCs=%d accepted; the credit records index at most %d VCs", vcs, mesh.MaxVCs)
		}
	}
	cfg.VCs = 0
	cfg.VCDepth = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative VCDepth accepted")
	}
}

// The VC knobs must actually reach the fabric: an env built with VCs=4
// must run the vc router with four VCs per input port (peak occupancy can
// then exceed the default two VCs' worth only if the knob threaded).
func TestEnvVCKnobsThreadThrough(t *testing.T) {
	cfg := Default().Scaled(64)
	cfg.Router = "vc"
	cfg.VCs = 4
	cfg.VCDepth = 1
	env, err := NewEnv(cfg, 4096, []Region{{ID: 1, Base: 0, Size: 4096}})
	if err != nil {
		t.Fatal(err)
	}
	if env.Mesh.Router() != "vc" {
		t.Fatalf("router = %q, want vc", env.Mesh.Router())
	}
}

func TestEnvTopologyThreadsThrough(t *testing.T) {
	cfg := Default().Scaled(64)
	cfg.Topology = "ring"
	e, err := NewEnv(cfg, 4096, nil)
	if err != nil {
		t.Fatal(err)
	}
	if kind := e.Mesh.Topology().Kind(); kind != "ring" {
		t.Fatalf("env mesh topology %q, want ring", kind)
	}
	// Ring route 0 -> 15 is one hop; the mesh's would be six.
	if h := e.Mesh.Hops(0, 15); h != 1 {
		t.Fatalf("ring Hops(0,15) = %d, want 1", h)
	}
}
