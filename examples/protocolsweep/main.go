// Protocolsweep: walk the paper's full protocol ladder (MESI -> MMemL1 ->
// DeNovo -> ... -> DBypFull) on one benchmark and show how each
// optimization changes the Figure 5.1a traffic stack. This is the
// per-benchmark view of the paper's main result.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/workloads"
)

func main() {
	bench := flag.String("bench", "kD-tree", "workload spec: a ported benchmark (fluidanimate, LU, FFT, radix, barnes, kD-tree) or a synthetic pattern like uniform(p=0.1), hotspot(t=2), prodcons")
	topology := flag.String("topology", "mesh", "NoC topology: "+strings.Join(mesh.TopologyKinds(), ", "))
	router := flag.String("router", "ideal", "router model: "+strings.Join(mesh.RouterKinds(), ", "))
	workers := flag.Int("workers", 0, "parallel simulations (0 = one per CPU)")
	extras := flag.Bool("extras", false, "append the registry's composed variants (ablations the paper never ran) to the ladder")
	flag.Parse()

	protocols := core.ProtocolNames()
	if *extras {
		protocols = append(protocols, core.ComposedVariants()...)
	}
	m, err := core.RunMatrix(core.MatrixOptions{
		Size:       workloads.Tiny,
		Protocols:  protocols,
		Benchmarks: []string{*bench},
		Topology:   *topology,
		Router:     *router,
		Workers:    *workers,
		Progress:   func(b, p string) { fmt.Printf("  running %s...\n", p) },
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nNoC topology: %s, router: %s\n", m.Topology, m.Router)

	fmt.Println()
	fmt.Println(m.Fig51a())

	fmt.Println("What to look for (paper §5.2):")
	fmt.Println("  MMemL1     - store fills stop visiting the L2 (ST shrinks)")
	fmt.Println("  DeNovo     - overhead (unblock/inval/ack) collapses to NACKs")
	fmt.Println("  DFlexL1    - comm-region responses shrink LD (barnes, kD-tree)")
	fmt.Println("  DValidateL2- L2 write-validate removes store-side memory fetches")
	fmt.Println("  DBypL2     - streaming data stops polluting the L2")
	fmt.Println("  DBypFull   - requests skip the L2 when Bloom filters prove it safe")
	if *extras {
		fmt.Println("\nComposed variants (-extras; registry ablations beyond the paper):")
		desc := map[string]string{
			"DeNovo+BypL2":       "response bypass alone, without Flex/ValidateL2",
			"DFlexL1+BypFull":    "Bloom-guarded bypass on the bare Flex protocol",
			"DValidateL2+FlexL1": "the largest on-chip-only stack",
			"MESI+MemL1":         "MMemL1 spelled compositionally (identical bars)",
		}
		for _, spec := range core.ComposedVariants() {
			d := desc[spec]
			if d == "" {
				// A variant added to the registry after this legend: fall
				// back to its resolved option set.
				if v, err := core.ParseProtocol(spec); err == nil {
					d = v.Family + " + " + strings.Join(v.Options, "+")
				}
			}
			fmt.Printf("  %-19s - %s\n", spec, d)
		}
	}
}
