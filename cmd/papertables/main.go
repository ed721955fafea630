// Command papertables prints the paper's configuration tables — Table 4.1
// (simulated system parameters) and Table 4.2 (application input sizes) —
// plus the inventories of every registry axis the scenario space is built
// from: NoC topologies, router models, protocol specs, workload specs,
// and the sweepable axes trafficsim -sweep turns into curve tables.
//
// The tables themselves come from job.FprintInventory; this command is
// the stdout shim over it.
package main

import (
	"flag"
	"log"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/job"
)

func main() {
	meshDims := flag.String("mesh", "4x4", "tile-grid dimensions WxH to render Table 4.1 and the topology inventory at (e.g. "+
		strings.Join(core.MeshPresets(), ", ")+")")
	flag.Parse()

	if err := job.FprintInventory(os.Stdout, *meshDims); err != nil {
		log.Fatal(err)
	}
}
