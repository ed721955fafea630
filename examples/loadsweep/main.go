// Loadsweep: assemble the classic NoC load curve from the scenario space.
// A hotspot(t=1..16) sweep concentrates all consumer traffic on t hot
// tiles — t=16 is spread like uniform traffic, t=1 hammers a single L2
// slice — and the assembled table shows how traffic, packet latency, link
// heat and waste move along the axis for each protocol, the form the
// paper's "are we there yet?" question is answered in.
//
// The sweep itself runs through internal/job (the same orchestration
// layer trafficsim uses); what stays here is the flag parsing and the
// ASCII latency-curve rendering.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/memsys"
)

func main() {
	spec := flag.String("sweep", "hotspot(t=1..16)", "sweep spec: axis=v1,v2,... or workload(key=lo..hi)")
	protoCSV := flag.String("protocols", "MESI,DeNovo,DBypFull", "comma-separated protocol specs (the curve family)")
	sizeName := flag.String("size", "tiny", "input scale: tiny, small, paper")
	meshDims := flag.String("mesh", "4x4", "tile-grid dimensions WxH (e.g. "+strings.Join(core.MeshPresets(), ", ")+")")
	topology := flag.String("topology", "mesh", "NoC topology")
	router := flag.String("router", "ideal", "router model")
	workers := flag.Int("workers", 0, "parallel simulations (0 = one per CPU, shared across all sweep points)")
	cachedir := flag.String("cachedir", "", "sweep-point cache directory: completed points persist and repeated points load instead of simulating")
	maxpoints := flag.Int("maxpoints", core.DefaultSweepPointCap, "sweep expansion cap")
	flag.Parse()

	if *maxpoints < 1 {
		log.Fatalf("-maxpoints %d: the sweep cap must be >= 1 (default %d)", *maxpoints, core.DefaultSweepPointCap)
	}
	if _, err := job.SizeFromName(*sizeName); err != nil {
		log.Fatal(err)
	}

	// Pin topology/router only when passed explicitly, so engine-axis
	// sweeps over them (-sweep topology=...) don't see a phantom conflict
	// with the flag defaults.
	explicit := job.Explicit(flag.CommandLine)
	req := job.Request{
		Sweep:     *spec,
		Size:      *sizeName,
		Workers:   *workers,
		MaxPoints: *maxpoints,
	}
	if explicit["mesh"] {
		if _, _, err := memsys.ParseMeshDims(*meshDims); err != nil {
			log.Fatal(err)
		}
		req.Mesh = *meshDims
	}
	if explicit["topology"] {
		req.Topology = *topology
	}
	if explicit["router"] {
		req.Router = *router
	}
	// A protocol-axis sweep owns the protocol list: an explicitly passed
	// -protocols is an error (matching trafficsim), and the flag's default
	// is simply not applied. Otherwise apply the flag, normalized through
	// the registry so spelling variants of one spec don't surprise anyone
	// downstream.
	parsed, err := core.ParseSweepLimit(*spec, *maxpoints)
	if err != nil {
		log.Fatal(err)
	}
	if parsed.Axis == "protocol" && explicit["protocols"] {
		log.Fatalf("sweep %q sets the protocol axis; drop the explicit -protocols list", parsed.Spec)
	}
	if parsed.Axis != "protocol" {
		var protos []string
		for _, p := range job.SplitList(*protoCSV) {
			v, err := core.ParseProtocol(p)
			if err != nil {
				log.Fatal(err)
			}
			protos = append(protos, v.Spec)
		}
		if len(protos) > 0 {
			req.Protocols = protos
		}
	}

	// Sweep-level progress (point i/N with cache-hit vs simulated) rather
	// than per-cell lines: the point is the unit a long sweep is watched
	// in. With -cachedir each completed point persists as the sweep runs,
	// so a killed run resumes by rerunning the same command.
	rc := job.RunConfig{Events: func(ev job.Event) {
		if ev.Kind == job.KindPoint {
			fmt.Fprintf(os.Stderr, "sweep point %d/%d %s=%s: %s\n", ev.Point+1, ev.Total, ev.Axis, ev.Value, ev.Status)
		}
	}}
	if *cachedir != "" {
		if rc.Cache, err = core.OpenPointCache(*cachedir); err != nil {
			log.Fatal(err)
		}
	}
	out, err := job.Run(context.Background(), req, rc)
	if err != nil {
		if out != nil && out.Sweep != nil && len(out.Sweep.Points) > 0 && *cachedir != "" {
			log.Printf("%d/%d points are persisted in %s; rerun to resume", len(out.Sweep.Points), out.Sweep.Expected, *cachedir)
		}
		log.Fatal(err)
	}
	res := out.Sweep
	table := res.Table()
	fmt.Println(table)

	// The curve family comes from the assembled rows (already canonical),
	// in first-appearance order — correct for protocol-axis sweeps too,
	// where the protocol varies with the point.
	var protos []string
	seenProto := map[string]bool{}
	for _, r := range table.Rows {
		if !seenProto[r.Protocol] {
			seenProto[r.Protocol] = true
			protos = append(protos, r.Protocol)
		}
	}

	// A terminal-width latency curve per protocol: the saturation shape at
	// a glance, mean packet latency scaled to the sweep's worst point.
	idx := -1
	for i, c := range table.Columns {
		if c == "MeanLat" {
			idx = i
		}
	}
	worst := 0.0
	for _, r := range table.Rows {
		if r.Values[idx] > worst {
			worst = r.Values[idx]
		}
	}
	if worst == 0 {
		return
	}
	fmt.Printf("mean packet latency along %s (each bar scaled to the worst point, %.1f cycles):\n", res.Axis, worst)
	for _, proto := range protos {
		fmt.Printf("\n%s\n", proto)
		for _, r := range table.Rows {
			if r.Protocol != proto {
				continue
			}
			// On a protocol-axis sweep the point is the protocol itself;
			// the benchmark is what distinguishes the bars.
			label := r.Point
			if parsed.Axis == "protocol" {
				label = r.Bench
			}
			lat := r.Values[idx]
			fmt.Printf("  %-12s %-40s %6.2f\n", label, strings.Repeat("#", int(lat/worst*40+0.5)), lat)
		}
	}
}
