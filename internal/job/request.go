// Package job is the run-orchestration layer between a validated request
// and an assembled result. It factors everything the CLIs would otherwise
// hand-wire — registry validation, matrix/sweep execution, progress
// plumbing, sweep-point cache/resume policy, cancellation — into two
// pieces:
//
//	Request  one matrix or sweep run, as plain strings (every axis is
//	         already a registry spec with loud validation)
//	Run      executes a Request via the core engine with ONE serialized
//	         progress-event stream (events.go) and, for sweeps, a
//	         content-addressed point cache
//
// cmd/trafficsim, cmd/papertables, examples/loadsweep and the perfbench
// benchmark are thin callers of this package. See DESIGN.md "The layered
// run pipeline".
package job

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/memsys"
	"repro/internal/workloads"
)

// Request is one run, fully described by plain values: every axis is a
// registry spec string the engine validates loudly, the same vocabulary
// the CLI flags use. The zero value of each field means "engine default"
// — mirroring the CLIs, which only pin the knobs passed explicitly so
// sweeps can tell "defaulted" from "pinned".
type Request struct {
	// Figures lists the figure tables to assemble for a matrix run:
	// figure ids (core.FigureIDs) or "all". Meaningless under Sweep.
	Figures []string
	// Summary adds the headline paper-vs-measured averages to a matrix
	// run's output.
	Summary bool
	// Size is the input scale: "tiny" (default when empty), "small" or
	// "paper".
	Size string
	// Benchmarks selects workloads as registry specs (nil = the paper's
	// six). A workload-parameter sweep owns this axis; setting both is an
	// error.
	Benchmarks []string
	// Protocols selects protocol specs (nil = the paper's nine). A
	// protocol-axis sweep owns this axis.
	Protocols []string
	// Sweep, when non-empty, makes this a sweep run over the given spec
	// ("axis=v1,v2,..." or "family(key=lo..hi)"); empty means a matrix
	// run.
	Sweep string
	// Topology pins the NoC topology ("" = mesh, the engine default —
	// and the only spelling that lets a topology sweep run).
	Topology string
	// Router pins the fabric forwarding model ("" = ideal).
	Router string
	// Mesh pins the tile-grid dimensions as "WxH" ("" = the paper's 4x4).
	Mesh string
	// VCs and VCDepth pin the vc router's buffer geometry (0 = model
	// default; dead — and rejected — under any other router).
	VCs     int
	VCDepth int
	// Threads is the simulated worker-thread count (0 = 16, the paper's
	// tile count).
	Threads int
	// Workers bounds concurrent cell simulations (0 = one per CPU,
	// 1 = serial). Scheduling never changes results, only wall-clock.
	Workers int
	// MaxPoints raises the sweep expansion cap (0 = the default cap,
	// core.DefaultSweepPointCap).
	MaxPoints int
}

// IsSweep reports whether the request is a sweep run.
func (r *Request) IsSweep() bool { return r.Sweep != "" }

// SizeFromName resolves the input-scale name ("" defaults to tiny, the
// scale every CLI defaults to).
func SizeFromName(name string) (workloads.Size, error) {
	switch name {
	case "", "tiny":
		return workloads.Tiny, nil
	case "small":
		return workloads.Small, nil
	case "paper":
		return workloads.Paper, nil
	}
	return 0, fmt.Errorf("unknown size %q", name)
}

// FigureIDs returns the figure ids a matrix request renders, with "all"
// expanded, in request order.
func (r *Request) FigureIDs() []string {
	var ids []string
	for _, id := range r.Figures {
		if id == "all" {
			ids = append(ids, core.FigureIDs()...)
		} else {
			ids = append(ids, id)
		}
	}
	return ids
}

// Validate checks everything the CLIs check before paying
// for any simulation, in the same order and with the same loud messages:
// knob conflicts, the input scale, figure ids, workload specs, the mesh
// shape, and — for sweeps — the spec itself plus axis-ownership
// conflicts. Every error here is the caller's mistake (trafficsim exits
// 2 on it). Deliberately NOT checked here: protocol specs, which the
// engine validates when the run starts (trafficsim reports those at run
// time with exit 1, and that behavior is pinned).
func (r *Request) Validate() error {
	if (r.VCs != 0 || r.VCDepth != 0) && r.Router != "vc" {
		return errors.New("-vcs/-vcdepth configure the vc router and are dead under any other model; add -router vc")
	}
	if r.MaxPoints < 0 {
		return fmt.Errorf("-maxpoints %d: the sweep cap must be >= 1 (default %d)", r.MaxPoints, core.DefaultSweepPointCap)
	}
	if _, err := SizeFromName(r.Size); err != nil {
		return err
	}
	for _, id := range r.Figures {
		if id == "all" {
			continue
		}
		if err := core.ValidFigureID(id); err != nil {
			return err
		}
	}
	for _, spec := range r.Benchmarks {
		if _, err := workloads.ParseSpec(spec); err != nil {
			return err
		}
	}
	if r.Mesh != "" {
		if _, _, err := memsys.ParseMeshDims(r.Mesh); err != nil {
			return err
		}
	}
	if r.IsSweep() {
		if len(r.Figures) > 0 || r.Summary {
			return errors.New("-sweep prints its own assembled table; drop -fig/-summary")
		}
		s, err := core.ParseSweepLimit(r.Sweep, r.MaxPoints)
		if err != nil {
			return err
		}
		opt, err := r.matrixOptions()
		if err != nil {
			return err
		}
		if _, err := s.PointOptions(opt); err != nil {
			return err
		}
	}
	return nil
}

// matrixOptions maps the request onto the engine's per-run options: zero
// fields stay zero so the engine applies its own defaults and sweeps can
// still claim unpinned axes.
func (r *Request) matrixOptions() (core.MatrixOptions, error) {
	size, err := SizeFromName(r.Size)
	if err != nil {
		return core.MatrixOptions{}, err
	}
	opt := core.MatrixOptions{
		Size:       size,
		Threads:    r.Threads,
		Protocols:  r.Protocols,
		Benchmarks: r.Benchmarks,
		Topology:   r.Topology,
		Router:     r.Router,
		VCs:        r.VCs,
		VCDepth:    r.VCDepth,
		Workers:    r.Workers,
	}
	if r.Mesh != "" {
		w, h, err := memsys.ParseMeshDims(r.Mesh)
		if err != nil {
			return core.MatrixOptions{}, err
		}
		opt.MeshWidth, opt.MeshHeight = w, h
	}
	return opt, nil
}
