package core_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/memsys"
	"repro/internal/workloads"
)

// goldenRouterFigureIDs are the cycle-router snapshots' tables: the
// headline traffic figure plus the congestion-telemetry table. Unlike the
// main golden (where "net" is excluded so new telemetry columns stay
// cheap), these snapshots pin "net" on purpose — latency profiles, VC
// occupancy and deflected hops ARE the behavior under test.
var goldenRouterFigureIDs = []string{"5.1a", "net"}

// goldenRouters are the cycle-level routers pinned end to end: the full
// Tiny benchmark suite under the protocol ladder's endpoints and midpoint,
// every cell on the router. sanityCol names the "net" column that must be
// nonzero in some cell, so a snapshot cannot silently pin an ideal-like
// run: VC buffers must fill under "vc", flits must deflect under
// "deflection".
var goldenRouters = []struct {
	router, path, sanityCol string
}{
	{"vc", "testdata/golden_tiny_vc.json", "Peak VC"},
	{"deflection", "testdata/golden_tiny_deflection.json", "Defl Hops"},
}

// TestGoldenTinyCycleRouters pins each cycle-level router end to end the
// same way TestGoldenTinyMatrix pins the ideal model: the Tiny matrix
// under the router must reproduce the checked-in figure and telemetry
// tables exactly. Intentional model changes regenerate the snapshots with:
//
//	go test ./internal/core -run TestGoldenTinyCycleRouters -update
func TestGoldenTinyCycleRouters(t *testing.T) {
	if testing.Short() {
		t.Skip("full Tiny cycle-router matrices are slow; run without -short")
	}
	for _, gr := range goldenRouters {
		t.Run(gr.router, func(t *testing.T) {
			m, err := core.RunMatrix(core.MatrixOptions{
				Size:      workloads.Tiny,
				Protocols: []string{"MESI", "DeNovo", "DBypFull"},
				Router:    gr.router,
			})
			if err != nil {
				t.Fatal(err)
			}
			got := goldenFile{Figures: make(map[string]*core.Table, len(goldenRouterFigureIDs))}
			for _, id := range goldenRouterFigureIDs {
				tab, err := m.Figure(id)
				if err != nil {
					t.Fatal(err)
				}
				got.Figures[id] = tab
			}
			checkGoldenSanity(t, got.Figures["net"], gr.router, gr.sanityCol)
			compareGolden(t, gr.path, &got, goldenRouterFigureIDs)
		})
	}
}

// checkGoldenSanity fails unless some row of the congestion table has a
// positive value in column col.
func checkGoldenSanity(t *testing.T, net *core.Table, router, col string) {
	t.Helper()
	idx := -1
	for i, c := range net.Columns {
		if c == col {
			idx = i
		}
	}
	if idx < 0 {
		t.Fatalf("congestion table has no %s column: %v", col, net.Columns)
	}
	for _, row := range net.Rows {
		if row.Values[idx] > 0 {
			return
		}
	}
	t.Fatalf("no cell of the Tiny %s matrix recorded a positive %s", router, col)
}

// TestDeflectionMatrixMatchesSerial extends the bit-identical-at-any-
// worker-count guarantee to the deflection router: a serial run and a
// default-width parallel run of the same matrix must agree on every
// counter, deflected hops included.
func TestDeflectionMatrixMatchesSerial(t *testing.T) {
	run := func(workers int) *core.Matrix {
		m, err := core.RunMatrix(core.MatrixOptions{
			Size:       workloads.Tiny,
			Protocols:  []string{"MESI", "DBypFull"},
			Benchmarks: []string{"FFT"},
			Router:     "deflection",
			Workers:    workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	serial, parallel := run(1), run(0)
	if serial.Router != "deflection" || parallel.Router != "deflection" {
		t.Fatalf("matrix router %q/%q, want deflection", serial.Router, parallel.Router)
	}
	for _, proto := range serial.Protocols {
		a, b := serial.Get("FFT", proto), parallel.Get("FFT", proto)
		if a == nil || b == nil {
			t.Fatalf("%s: missing cell", proto)
		}
		if a.FlitHops != b.FlitHops || a.ExecCycles != b.ExecCycles ||
			a.Waste != b.Waste || a.Time != b.Time || a.Net != b.Net {
			t.Fatalf("%s: deflection cell diverges between serial and parallel runs", proto)
		}
		if a.Net.Router != "deflection" {
			t.Fatalf("%s: cell ran router %q", proto, a.Net.Router)
		}
		if a.Net.PeakVCOccupancy <= 0 {
			t.Fatalf("%s: deflection run recorded no local-queue occupancy", proto)
		}
	}
}

// End to end, a saturating hotspot on the deflection router records
// deflected hops and a strictly higher mean packet latency than the
// ideal reservation model: misrouting detours are measured, not hidden.
func TestDeflectionHotspotEndToEnd(t *testing.T) {
	wl := workloads.MustByName("hotspot(t=1)", workloads.Tiny, 16)
	cfg := memsys.Default().Scaled(workloads.Tiny.ScaleDiv())
	ideal, err := core.RunOne(cfg, "MESI", wl)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Router = "deflection"
	defl, err := core.RunOne(cfg, "MESI", wl)
	if err != nil {
		t.Fatal(err)
	}
	if defl.Net.DeflectedHops == 0 {
		t.Fatal("hotspot run on the deflection router recorded zero deflected hops")
	}
	if ideal.Net.DeflectedHops != 0 {
		t.Fatalf("ideal router reported %d deflected hops", ideal.Net.DeflectedHops)
	}
	if !(defl.Net.LatencyMean > ideal.Net.LatencyMean) {
		t.Fatalf("deflection mean latency %.2f not above ideal %.2f",
			defl.Net.LatencyMean, ideal.Net.LatencyMean)
	}
}

// The saturation claim behind the sweep pin: under a rising hotspot load
// the deflection router's latency curve diverges from the vc router's —
// at high injection the two cycle-level models must not agree (deflection
// pays detours where vc pays buffering) — and only tables containing
// deflection cells grow the Defl% column.
func TestDeflectionSweepDivergesFromVC(t *testing.T) {
	if testing.Short() {
		t.Skip("two 3-point sweeps are slow; run without -short")
	}
	sweep := func(router string) *core.SweepTable {
		res, err := core.RunSweep(context.Background(), core.MatrixOptions{
			Size:      workloads.Tiny,
			Protocols: []string{"MESI"},
			Router:    router,
		}, "hotspot(t=1,4,16)", core.SweepOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Table()
	}
	vc, defl := sweep("vc"), sweep("deflection")

	wantVC := []string{"Traffic", "Cycles", "MeanLat", "MaxLat", "Util%", "Waste%", "L1Waste%"}
	if !reflect.DeepEqual(vc.Columns, wantVC) {
		t.Fatalf("vc sweep columns %v, want the historical set %v", vc.Columns, wantVC)
	}
	if !reflect.DeepEqual(defl.Columns, append(wantVC, "Defl%")) {
		t.Fatalf("deflection sweep columns %v, want %v plus Defl%%", defl.Columns, wantVC)
	}
	if len(vc.Rows) != len(defl.Rows) {
		t.Fatalf("row mismatch: vc %d, deflection %d", len(vc.Rows), len(defl.Rows))
	}
	col := func(t2 *core.SweepTable, name string) int {
		for i, c := range t2.Columns {
			if c == name {
				return i
			}
		}
		t.Fatalf("column %s missing from %v", name, t2.Columns)
		return -1
	}
	meanVC, meanDefl := col(vc, "MeanLat"), col(defl, "MeanLat")
	deflIdx := col(defl, "Defl%")
	diverged, deflected := false, false
	for i := range vc.Rows {
		if vc.Rows[i].Values[meanVC] != defl.Rows[i].Values[meanDefl] {
			diverged = true
		}
		if defl.Rows[i].Values[deflIdx] > 0 {
			deflected = true
		}
	}
	if !diverged {
		t.Fatal("vc and deflection latency curves are identical across the hotspot sweep")
	}
	if !deflected {
		t.Fatal("no point of the deflection sweep reported a nonzero Defl%")
	}
}
