package mesh

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim"
)

var updateLogs = flag.Bool("update", false,
	"rewrite the internal/mesh/testdata delivery logs from the current model")

// TestVCWideDeliveryLog pins the vc router at VC counts whose switch-
// allocation candidate ids (input port x VCs, plus the source queue) run
// past one 64-bit word: 16 and 32 VCs on the 4x4 mesh and torus. A
// contended burst — all-to-all traffic, a hotspot, and a second wave
// injected mid-flight — must deliver exactly the checked-in sequence of
// (cycle, packet id). Intentional model changes regenerate the logs with:
//
//	go test ./internal/mesh -run TestVCWideDeliveryLog -update
func TestVCWideDeliveryLog(t *testing.T) {
	for _, topo := range []string{"mesh", "torus"} {
		for _, vcs := range []int{16, 32} {
			name := fmt.Sprintf("%s-%dvc", topo, vcs)
			t.Run(name, func(t *testing.T) {
				got := wideDeliveryLog(topo, vcs)
				path := filepath.Join("testdata", "vc_wide", name+".log")
				if *updateLogs {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v — generate the log with -update", err)
				}
				if !bytes.Equal(got, want) {
					gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
					for i := 0; i < len(gl) && i < len(wl); i++ {
						if !bytes.Equal(gl[i], wl[i]) {
							t.Fatalf("delivery %d drifted: want %q, got %q", i, wl[i], gl[i])
						}
					}
					t.Fatalf("delivery log has %d lines, want %d", len(gl), len(wl))
				}
			})
		}
	}
}

// wideDeliveryLog runs the contended burst and returns one "cycle id"
// line per delivered packet, in delivery order.
func wideDeliveryLog(topo string, vcs int) []byte {
	k := &sim.Kernel{}
	m := New(k, Config{Width: 4, Height: 4, Topology: topo, Router: "vc", VCs: vcs,
		LinkLatency: 3, LocalLatency: 1})
	var log bytes.Buffer
	for tile := 0; tile < m.Tiles(); tile++ {
		m.Register(tile, func(p any) { fmt.Fprintf(&log, "%d %d\n", k.Now(), p.(int)) })
	}
	id := 0
	send := func(src, dst, flits int) {
		m.Send(src, dst, flits, id)
		id++
	}
	for s := 0; s < 16; s++ {
		for d := 0; d < 16; d++ {
			if s != d {
				send(s, d, 1+(s+d)%5)
			}
		}
	}
	for round := 0; round < 4; round++ {
		for src := 1; src < 16; src++ {
			send(src, 0, 5)
		}
	}
	k.At(50, func() {
		for s := 0; s < 16; s++ {
			send(s, 15-s, 5)
			send(s, (s*5+3)%16, 2)
		}
	})
	k.Run()
	return log.Bytes()
}
