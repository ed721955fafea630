package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/memsys"
	"repro/internal/workloads"
)

// TestProtocolAllocBudget bounds the host allocations of one whole Tiny
// FFT cell — environment, protocol engine, runner and simulation — under
// each protocol family. The coherence engines keep no per-event maps or
// closures, so a run allocates little beyond its set-up and its message
// payloads; the ceilings are 1.1x the counts measured when the engines
// went map- and closure-free, so reintroducing a per-event map or
// closure fails here.
func TestProtocolAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-cell allocation counts; run without -short")
	}
	cfg := memsys.Default().Scaled(workloads.Tiny.ScaleDiv())
	prog := workloads.MustByName("FFT", workloads.Tiny, 16)
	for _, tc := range []struct {
		proto    string
		measured float64
	}{
		{"MESI", 21957},     // 55,665 before the engines went map- and closure-free
		{"DBypFull", 19954}, // 89,972 before
	} {
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := core.RunOne(cfg, tc.proto, prog); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations per Tiny FFT cell", tc.proto, allocs)
		if ceiling := 1.1 * tc.measured; allocs > ceiling {
			t.Errorf("%s: %.0f allocations per Tiny FFT cell, ceiling %.0f (1.1 x %.0f)", tc.proto, allocs, ceiling, tc.measured)
		}
	}
}
