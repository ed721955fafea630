// Ablation golden: the design choices the paper calls out, each run as a
// (protocol, workload, configuration) case at Tiny scale, with the
// deterministic numbers of every case — simulated cycles, total
// flit-hops and the waste share — pinned in testdata/golden_ablations_tiny.json,
// and the direction each ablation claims asserted pair by pair. The same
// case table drives the SimThroughput* host-speed benches (bench_test.go),
// so a bench always times a configuration whose output is pinned here.
//
// Regenerate the snapshot after an intentional model change with:
//
//	go test . -run TestGoldenAblationsTiny -update
package repro

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/memsys"
	"repro/internal/trace"
	"repro/internal/workloads"
)

var updateGolden = flag.Bool("update", false,
	"rewrite testdata/golden_ablations_tiny.json from the current model")

const ablationsGoldenPath = "testdata/golden_ablations_tiny.json"

// ablationCase is one Tiny-scale run: a protocol spec on a workload spec
// (16 threads) under the default configuration scaled to Tiny, changed by
// mutate. A case with replay set runs a recorded trace of that workload
// instead of bench.
type ablationCase struct {
	name   string
	proto  string
	bench  string
	replay string
	mutate func(*memsys.Config)
}

func vcRun(c *memsys.Config)          { c.Router = "vc" }
func deflRun(c *memsys.Config)        { c.Router = "deflection" }
func mesh8x8VCRun(c *memsys.Config)   { *c = c.WithMesh(8, 8); c.Router = "vc" }
func mesh16x16VCRun(c *memsys.Config) { *c = c.WithMesh(16, 16); c.Router = "vc" }

// ablationCases is the one case table. The names are the bench names
// these numbers were first reported under.
var ablationCases = []ablationCase{
	// Write-combining batching (§4.2): the 10,000-cycle timeout lets
	// registrations for a line coalesce into one message. Cutting the
	// timeout to near zero degenerates into per-word registration traffic
	// — the same failure §5.2.2 describes for radix when the table cannot
	// hold a line long enough. (The 32-entry cap itself rarely binds in
	// this simulator: the scattered lines fall out of the small L1 first,
	// carrying their pending registrations with the combined writeback.)
	{name: "AblationWriteCombineBatched", proto: "DValidateL2", bench: "FFT"},
	{name: "AblationWriteCombineNoBatch", proto: "DValidateL2", bench: "FFT",
		mutate: func(c *memsys.Config) { c.WriteCombineTimeout = 1 }},

	// Bloom filter geometry (§4.4): radix keeps ~1024 scattered dirty
	// lines on-chip, so undersized filters saturate. Tiny filters are
	// cheaper to copy — Bloom-copy overhead falls 30,720 -> 3,840
	// flit-hops — while every other traffic class grows or holds (LD and
	// WB up, ST equal) and the waste share rises 5.76% -> 6.15%. Total
	// flit-hops fall: the copy saving outweighs the growth.
	{name: "AblationBloomPaperSize", proto: "DBypFull", bench: "radix"},
	{name: "AblationBloomTiny", proto: "DBypFull", bench: "radix",
		mutate: func(c *memsys.Config) {
			c.Bloom.FiltersPerSlice = 2
			c.Bloom.Entries = 64
		}},

	// MemToL1 (§3.1): a latency win for DeNovo with traffic moving by
	// only ≈0.2%; the MESI variant (MMemL1) also saves traffic.
	{name: "AblationDeNovoNoMemToL1", proto: "DValidateL2", bench: "FFT"},
	{name: "AblationDeNovoMemToL1", proto: "DMemL1", bench: "FFT"},

	// Flex packet cap (§5.3): kD-tree's two-record edge communication
	// region is exactly the 64B packet cap. Halving the cap truncates the
	// prefetch, forcing extra requests and refetches — the packet-size
	// sensitivity the paper blames for two of three edge lines being read
	// twice from memory.
	{name: "AblationFlexCap4Flits", proto: "DFlexL2", bench: "kD-tree"},
	{name: "AblationFlexCap2Flits", proto: "DFlexL2", bench: "kD-tree",
		mutate: func(c *memsys.Config) { c.MaxDataFlits = 2 }},

	// Simulation throughput per protocol family on one workload, then the
	// same end-to-end runs under the cycle-level routers (vc wormhole and
	// bufferless deflection), whose per-cycle kernel tick dominates
	// simulator cost; hotspot is where deflections actually occur.
	{name: "SimThroughputMESI", proto: "MESI", bench: "LU"},
	{name: "SimThroughputDBypFull", proto: "DBypFull", bench: "LU"},
	{name: "SimThroughputVCMESI", proto: "MESI", bench: "LU", mutate: vcRun},
	{name: "SimThroughputVCDBypFull", proto: "DBypFull", bench: "LU", mutate: vcRun},
	{name: "SimThroughputVCHotspot", proto: "MESI", bench: "hotspot(t=1)", mutate: vcRun},
	{name: "SimThroughputVCUniform", proto: "MESI", bench: "uniform", mutate: vcRun},
	{name: "SimThroughputDeflectionMESI", proto: "MESI", bench: "LU", mutate: deflRun},
	{name: "SimThroughputDeflectionHotspot", proto: "MESI", bench: "hotspot(t=1)", mutate: deflRun},
	{name: "SimThroughputDeflectionUniform", proto: "MESI", bench: "uniform", mutate: deflRun},

	// Mesh scaling: the 16 threads map to the first 16 of 64/256 tiles,
	// so the larger grids are sparser — on a 16x16 mesh with one hot tile
	// most of the fabric idles, the case the O(active) tick exists for.
	{name: "SimThroughputVCMesh8x8", proto: "MESI", bench: "uniform", mutate: mesh8x8VCRun},
	{name: "SimThroughputVCMesh16x16", proto: "MESI", bench: "uniform", mutate: mesh16x16VCRun},
	{name: "SimThroughputVCSparseHotspot16x16", proto: "MESI", bench: "hotspot(t=1)", mutate: mesh16x16VCRun},

	// Extension beyond the paper (its §6 follow-up): hardware
	// counter-based reuse prediction for L2 bypass instead of software
	// annotations, against the software-annotated DBypL2.
	{name: "ExtensionBypassSoftware", proto: "DBypL2", bench: "kD-tree"},
	{name: "ExtensionBypassHardware", proto: "DBypHW", bench: "kD-tree"},

	// Synthetic sharing shapes: hotspot at one hot tile is the
	// concentration extreme, uniform the spread extreme.
	{name: "AblationSyntheticUniformMESI", proto: "MESI", bench: "uniform"},
	{name: "AblationSyntheticUniformDeNovo", proto: "DeNovo", bench: "uniform"},
	{name: "AblationSyntheticHotspotMESI", proto: "MESI", bench: "hotspot(t=1)"},
	{name: "AblationSyntheticHotspotDeNovo", proto: "DeNovo", bench: "hotspot(t=1)"},

	// Trace replay: a recorded FFT trace must cost exactly the simulated
	// work of the live program (the recorded stream is bit-identical).
	{name: "AblationTraceReplayFFT", proto: "MESI", replay: "FFT"},
}

// sweepCase is one assembled Tiny sweep, pinned by its first protocol's
// curve endpoints.
type sweepCase struct {
	name string
	opt  core.MatrixOptions
	spec string
}

var sweepCases = []sweepCase{
	{"SweepHotspotConcentration", core.MatrixOptions{
		Size:      workloads.Tiny,
		Protocols: []string{"MESI", "DeNovo"},
	}, "hotspot(t=1,2,4,8,16)"},
	{"SweepUniformLoadVC", core.MatrixOptions{
		Size:      workloads.Tiny,
		Router:    "vc",
		Protocols: []string{"MESI"},
	}, "uniform(p=0.02..0.1..0.04)"},
}

// caseByName looks a case up in the table.
func caseByName(name string) (ablationCase, error) {
	for _, c := range ablationCases {
		if c.name == name {
			return c, nil
		}
	}
	return ablationCase{}, fmt.Errorf("no ablation case %q", name)
}

// run simulates the case once. dir holds the recorded trace of a replay
// case.
func (c ablationCase) run(dir string) (*core.Result, error) {
	cfg := memsys.Default().Scaled(workloads.Tiny.ScaleDiv())
	if c.mutate != nil {
		c.mutate(&cfg)
	}
	spec := c.bench
	if c.replay != "" {
		live, err := workloads.ByName(c.replay, workloads.Tiny, 16)
		if err != nil {
			return nil, err
		}
		path := filepath.Join(dir, c.name+".trc")
		if err := trace.WriteFile(path, trace.Record(live)); err != nil {
			return nil, err
		}
		spec = "replay(file=" + path + ")"
	}
	prog, err := workloads.ByName(spec, workloads.Tiny, 16)
	if err != nil {
		return nil, err
	}
	return core.RunOne(cfg, c.proto, prog)
}

// ablationRow is one case's pinned numbers.
type ablationRow struct {
	Name     string
	Cycles   int64
	FlitHops float64
	WastePct float64
}

// sweepRow is one sweep's pinned curve endpoints: total flit-hops and
// mean packet latency at the first and last point of the first
// protocol's curve, so first-vs-last measures the load axis.
type sweepRow struct {
	Name          string
	Rows          int
	FirstFlitHops float64
	LastFlitHops  float64
	FirstMeanLat  float64
	LastMeanLat   float64
}

type ablationsGolden struct {
	Cases  []ablationRow
	Sweeps []sweepRow
}

// ablationRun memoizes one simulation of every case and sweep per test
// binary, shared by the golden and the directional assertions.
var ablationRun = struct {
	once    sync.Once
	results map[string]*core.Result
	golden  ablationsGolden
	err     error
}{}

func ablationResults(t *testing.T) (map[string]*core.Result, *ablationsGolden) {
	t.Helper()
	if testing.Short() {
		t.Skip("runs every ablation case; run without -short")
	}
	r := &ablationRun
	r.once.Do(func() {
		dir, err := os.MkdirTemp("", "ablations-")
		if err != nil {
			r.err = err
			return
		}
		defer os.RemoveAll(dir)
		r.results = map[string]*core.Result{}
		for _, c := range ablationCases {
			res, err := c.run(dir)
			if err != nil {
				r.err = fmt.Errorf("%s: %w", c.name, err)
				return
			}
			r.results[c.name] = res
			r.golden.Cases = append(r.golden.Cases, ablationRow{
				Name:     c.name,
				Cycles:   res.ExecCycles,
				FlitHops: res.Total(),
				WastePct: res.WasteShare * 100,
			})
		}
		for _, s := range sweepCases {
			row, err := s.endpoints()
			if err != nil {
				r.err = fmt.Errorf("%s: %w", s.name, err)
				return
			}
			r.golden.Sweeps = append(r.golden.Sweeps, row)
		}
	})
	if r.err != nil {
		t.Fatal(r.err)
	}
	return r.results, &r.golden
}

// endpoints runs the sweep and reads its first protocol's curve ends.
func (s sweepCase) endpoints() (sweepRow, error) {
	res, err := core.RunSweep(context.Background(), s.opt, s.spec, core.SweepOptions{})
	if err != nil {
		return sweepRow{}, err
	}
	table := res.Table()
	col := func(name string) int {
		for i, c := range table.Columns {
			if c == name {
				return i
			}
		}
		return -1
	}
	traffic, lat := col("Traffic"), col("MeanLat")
	if traffic < 0 || lat < 0 {
		return sweepRow{}, fmt.Errorf("sweep table lacks Traffic/MeanLat columns: %v", table.Columns)
	}
	var curve []core.SweepRow
	for _, r := range table.Rows {
		if r.Protocol == table.Rows[0].Protocol {
			curve = append(curve, r)
		}
	}
	first, last := curve[0], curve[len(curve)-1]
	return sweepRow{
		Name:          s.name,
		Rows:          len(table.Rows),
		FirstFlitHops: first.Values[traffic],
		LastFlitHops:  last.Values[traffic],
		FirstMeanLat:  first.Values[lat],
		LastMeanLat:   last.Values[lat],
	}, nil
}

// TestGoldenAblationsTiny pins every case's cycles, flit-hops and waste
// share, and both sweeps' curve endpoints, exactly.
func TestGoldenAblationsTiny(t *testing.T) {
	_, got := ablationResults(t)
	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(ablationsGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ablationsGoldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d cases, %d sweeps)", ablationsGoldenPath, len(got.Cases), len(got.Sweeps))
		return
	}
	raw, err := os.ReadFile(ablationsGoldenPath)
	if err != nil {
		t.Fatalf("%v — generate the snapshot with -update", err)
	}
	var want ablationsGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	compareRows(t, "case", want.Cases, got.Cases, func(r ablationRow) string { return r.Name })
	compareRows(t, "sweep", want.Sweeps, got.Sweeps, func(r sweepRow) string { return r.Name })
}

// compareRows reports every row that differs, is missing, or is new.
func compareRows[R any](t *testing.T, kind string, want, got []R, name func(R) string) {
	t.Helper()
	wantBy := map[string]R{}
	for _, r := range want {
		wantBy[name(r)] = r
	}
	for _, g := range got {
		w, ok := wantBy[name(g)]
		if !ok {
			t.Errorf("%s %s missing from the golden file — regenerate with -update", kind, name(g))
			continue
		}
		delete(wantBy, name(g))
		if !reflect.DeepEqual(w, g) {
			t.Errorf("%s %s drifted:\n  got  %+v\n  want %+v", kind, name(g), g, w)
		}
	}
	for n := range wantBy {
		t.Errorf("golden %s %s no longer runs — regenerate with -update", kind, n)
	}
}

// TestAblationDirections asserts the direction each ablation pair claims,
// so a model change that flips a design-choice result fails here even if
// the golden is regenerated.
func TestAblationDirections(t *testing.T) {
	res, _ := ablationResults(t)

	t.Run("WriteCombine", func(t *testing.T) {
		batched, noBatch := res["AblationWriteCombineBatched"], res["AblationWriteCombineNoBatch"]
		if !(noBatch.Total() > batched.Total()) {
			t.Errorf("unbatched write-combining flit-hops %.0f, want more than batched %.0f",
				noBatch.Total(), batched.Total())
		}
	})

	t.Run("FlexCap", func(t *testing.T) {
		cap4, cap2 := res["AblationFlexCap4Flits"], res["AblationFlexCap2Flits"]
		if !(cap2.Total() > cap4.Total()) {
			t.Errorf("2-flit cap flit-hops %.0f, want more than 4-flit %.0f", cap2.Total(), cap4.Total())
		}
		if !(cap2.ExecCycles > cap4.ExecCycles) {
			t.Errorf("2-flit cap cycles %d, want more than 4-flit %d", cap2.ExecCycles, cap4.ExecCycles)
		}
	})

	t.Run("MemToL1", func(t *testing.T) {
		off, on := res["AblationDeNovoNoMemToL1"], res["AblationDeNovoMemToL1"]
		if !(on.ExecCycles < off.ExecCycles) {
			t.Errorf("MemToL1 cycles %d, want fewer than without %d", on.ExecCycles, off.ExecCycles)
		}
		if d := math.Abs(on.Total()/off.Total() - 1); d > 0.01 {
			t.Errorf("MemToL1 moves traffic by %.2f%%, want under 1%%", d*100)
		}
	})

	t.Run("Bloom", func(t *testing.T) {
		paper, tiny := res["AblationBloomPaperSize"], res["AblationBloomTiny"]
		copyPaper := paper.FlitHops[memsys.ClassOVH][memsys.BOvhBloom]
		copyTiny := tiny.FlitHops[memsys.ClassOVH][memsys.BOvhBloom]
		if !(copyTiny < copyPaper) {
			t.Errorf("tiny-filter Bloom-copy flit-hops %.0f, want fewer than paper-size %.0f", copyTiny, copyPaper)
		}
		for c := memsys.Class(0); c < memsys.NumClasses; c++ {
			p, n := paper.ClassTotal(c), tiny.ClassTotal(c)
			if c == memsys.ClassOVH {
				p, n = p-copyPaper, n-copyTiny
			}
			if n < p {
				t.Errorf("%s flit-hops (Bloom copy excluded) fell %.0f -> %.0f under tiny filters, want up or equal", c, p, n)
			}
		}
		if !(tiny.WasteShare > paper.WasteShare) {
			t.Errorf("tiny-filter waste share %.4f, want above paper-size %.4f", tiny.WasteShare, paper.WasteShare)
		}
	})

	t.Run("TraceReplay", func(t *testing.T) {
		live, err := ablationCase{proto: "MESI", bench: "FFT"}.run("")
		if err != nil {
			t.Fatal(err)
		}
		replay := *res["AblationTraceReplayFFT"]
		replay.Benchmark = live.Benchmark
		if !reflect.DeepEqual(&replay, live) {
			t.Errorf("replayed FFT differs from the live run:\n  replay %+v\n  live   %+v", replay, *live)
		}
	})
}
