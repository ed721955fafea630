// Wastemap: the paper's waste-characterization methodology (§4.1) applied
// to one protocol/benchmark pair: every word fetched into the L1, into the
// L2, and from memory is classified as Used, Fetch, Write, Invalidate,
// Evict, Unevicted or Excess, reproducing one column of Figures 5.3a-c.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"repro/internal/core"
	"repro/internal/memsys"
	"repro/internal/mesh"
	"repro/internal/waste"
	"repro/internal/workloads"
)

func main() {
	bench := flag.String("bench", "fluidanimate", "workload spec: a benchmark name or a synthetic pattern like uniform(p=0.1)")
	proto := flag.String("protocol", "DBypFull", "protocol configuration")
	topology := flag.String("topology", "mesh", "NoC topology: "+strings.Join(mesh.TopologyKinds(), ", "))
	router := flag.String("router", "ideal", "router model: "+strings.Join(mesh.RouterKinds(), ", "))
	flag.Parse()

	size := workloads.Tiny
	prog, err := workloads.ByName(*bench, size, 16)
	if err != nil {
		log.Fatal(err)
	}
	cfg := memsys.Default().Scaled(size.ScaleDiv())
	cfg.Topology = *topology
	cfg.Router = *router
	res, err := core.RunOne(cfg, *proto, prog)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s under %s — words fetched per level, by waste category\n\n", prog.Name(), *proto)
	fmt.Printf("%-8s %10s", "level", "total")
	for _, c := range waste.Categories {
		fmt.Printf(" %11s", c)
	}
	fmt.Println()
	for _, level := range []waste.Level{waste.LevelL1, waste.LevelL2, waste.LevelMem} {
		total := res.WasteTotal(level)
		fmt.Printf("%-8s %10d", level, total)
		for _, c := range waste.Categories {
			if total == 0 {
				fmt.Printf(" %11s", "-")
				continue
			}
			fmt.Printf(" %10.1f%%", float64(res.Waste[level][c])/float64(total)*100)
		}
		fmt.Println()
	}

	fmt.Printf("\noverall wasted traffic share: %.1f%% of %0.f flit-hops\n",
		res.WasteShare*100, res.Total())
	fmt.Println("\nCategories (§4.1): Used = read by the program (or reused from the L2);")
	fmt.Println("Fetch = word fetched while already present; Write = overwritten before")
	fmt.Println("use; Invalidate/Evict = lost before use; Unevicted = still cached at")
	fmt.Println("the end; Excess = fetched from DRAM but dropped at the memory")
	fmt.Println("controller by the L2 Flex filter.")
}
