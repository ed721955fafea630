package main

import (
	"fmt"
	"runtime"
	"strings"

	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/memsys"
	"repro/internal/workloads"
)

// Every workload runs the paper's 16 threads. The MESI directory keeps a
// 16-bit sharer vector, so MESI runs with more than 16 threads lose
// sharers and hang (README.md records the repro); until that is fixed the
// benchmark does not go past 16.
const threads = 16

// maxWorkers caps the engine's worker pool. The workloads were sized on
// a 2-core host, and the pool never gets more workers than the host has
// CPUs, so a run on a larger host measures the same schedule.
const maxWorkers = 2

// workload is one named benchmark input: the request a caller submits to
// job.Run, and how its simulated results are checked.
type workload struct {
	name string
	req  job.Request
	// freshCache gives every pass an empty point-cache directory, so each
	// sweep point is simulated and written through PointCache.Store.
	freshCache bool
	// golden, if set, is the figure snapshot the cells must reproduce;
	// otherwise each cell must match its recorded digest.
	golden string
	// accuracy selects the Summary lines printed beside the results; nil
	// prints none.
	accuracy func(line string) bool
	// inputs says where the inputs come from, for the report.
	inputs string
}

// workloadNames lists the workloads in the order the benchmark defines
// them.
var workloadNames = []string{"paper-tiny", "paper-small", "noc-cycle"}

// nocRates are the injection rates noc-cycle draws from. 0.05 is the
// synthetic patterns' default; the neighbours change the compute gap
// after each line burst by one cycle either way, so a seed moves the
// simulated traffic but barely the host cost. digests.json holds a
// reference for every cell at every rate.
var nocRates = []string{"0.05", "0.048", "0.052"}

// nocPatterns are the synthetic patterns noc-cycle sweeps, as spec
// prefixes that take a ",p=" or "p=" argument.
var nocPatterns = []struct{ name, args string }{
	{"uniform", ""},
	{"hotspot", "t=1"},
	{"transpose", ""},
}

// nocRate derives pattern i's injection rate from the seed. Seed 0, the
// default, gives every pattern its default rate.
func nocRate(seed uint64, i int) string {
	if seed == 0 {
		return nocRates[0]
	}
	return nocRates[splitmix(seed*uint64(len(nocPatterns))+uint64(i))%uint64(len(nocRates))]
}

// nocBenchmarks returns noc-cycle's workload specs, pattern i at
// injection rate rate(i).
func nocBenchmarks(rate func(i int) string) []string {
	specs := make([]string, len(nocPatterns))
	for i, p := range nocPatterns {
		args := p.args
		if args != "" {
			args += ","
		}
		specs[i] = fmt.Sprintf("%s(%sp=%s)", p.name, args, rate(i))
	}
	return specs
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func poolWorkers() int {
	return min(maxWorkers, runtime.NumCPU())
}

// lookupWorkload builds the named workload for a seed.
func lookupWorkload(name string, seed uint64) (*workload, error) {
	switch name {
	case "paper-tiny":
		return &workload{
			name: name,
			req: job.Request{
				Figures: []string{"all"}, Summary: true,
				Size: "tiny", Workers: poolWorkers(),
			},
			golden:   "internal/core/testdata/golden_tiny.json",
			accuracy: func(string) bool { return true },
			inputs:   "the paper's six programs at Tiny scale (fixed inputs; the seed is not used)",
		}, nil
	case "paper-small":
		return &workload{
			name: name,
			req: job.Request{
				Figures: []string{"all"}, Summary: true,
				Size: "small", Protocols: []string{"MESI", "DBypFull"}, Workers: 1,
			},
			accuracy: func(line string) bool {
				return strings.Contains(line, "DBypFull vs MESI") || strings.Contains(line, "DBypFull remaining waste")
			},
			inputs: "the paper's six programs at Small scale (fixed inputs; the seed is not used)",
		}, nil
	case "noc-cycle":
		specs := nocBenchmarks(func(i int) string { return nocRate(seed, i) })
		return &workload{
			name: name,
			req: job.Request{
				Sweep: "router=vc,deflection", Size: "paper", Mesh: "8x8", Threads: threads,
				Benchmarks: specs, Protocols: []string{"MESI", "DeNovo"},
				Workers: poolWorkers(),
			},
			freshCache: true,
			inputs:     fmt.Sprintf("synthetic patterns %s (injection rates drawn from seed %d)", strings.Join(specs, ", "), seed),
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(workloadNames, ", "))
}

// point is one matrix of a workload, resolved the way the engine resolves
// it: canonical specs, defaults applied, and the system configuration
// every cell of the point runs on. The traced and set-up passes drive
// cells from these; the determinism cross-check proves the resolution
// matches the engine's.
type point struct {
	prefix string // cell-id prefix: "" for a matrix, "axis=value|" for a sweep point
	opt    core.MatrixOptions
	cfg    memsys.Config
	benchs []string
	protos []string
}

// cellID names a cell the same way for every pass.
func (p *point) cellID(bench, proto string) string { return p.prefix + bench + "/" + proto }

// resolvePoints expands a request into its points, and returns the
// parsed sweep of a sweep request.
func resolvePoints(req job.Request) ([]*point, *core.SweepSpec, error) {
	size, err := job.SizeFromName(req.Size)
	if err != nil {
		return nil, nil, err
	}
	base := core.MatrixOptions{
		Size: size, Threads: req.Threads, Protocols: req.Protocols, Benchmarks: req.Benchmarks,
		Topology: req.Topology, Router: req.Router, VCs: req.VCs, VCDepth: req.VCDepth,
		Workers: req.Workers,
	}
	if req.Mesh != "" {
		if base.MeshWidth, base.MeshHeight, err = memsys.ParseMeshDims(req.Mesh); err != nil {
			return nil, nil, err
		}
	}
	if !req.IsSweep() {
		p, err := resolvePoint("", base)
		if err != nil {
			return nil, nil, err
		}
		return []*point{p}, nil, nil
	}
	s, err := core.ParseSweepLimit(req.Sweep, req.MaxPoints)
	if err != nil {
		return nil, nil, err
	}
	opts, err := s.PointOptions(base)
	if err != nil {
		return nil, nil, err
	}
	pts := make([]*point, len(opts))
	for i, o := range opts {
		if pts[i], err = resolvePoint(s.Axis+"="+s.Values[i]+"|", o); err != nil {
			return nil, nil, err
		}
	}
	return pts, s, nil
}

func resolvePoint(prefix string, opt core.MatrixOptions) (*point, error) {
	p := &point{prefix: prefix, opt: opt}
	th := opt.Threads
	if th == 0 {
		th = threads
	}
	p.protos = core.ProtocolNames()
	if opt.Protocols != nil {
		p.protos = make([]string, len(opt.Protocols))
		for i, spec := range opt.Protocols {
			v, err := core.ParseProtocol(spec)
			if err != nil {
				return nil, err
			}
			p.protos[i] = v.Spec
		}
	}
	p.benchs = workloads.Names()
	if opt.Benchmarks != nil {
		p.benchs = make([]string, len(opt.Benchmarks))
		for i, spec := range opt.Benchmarks {
			s, err := workloads.ParseSpec(spec)
			if err != nil {
				return nil, err
			}
			p.benchs[i] = s.Canonical
		}
	}
	cfg := memsys.Default().Scaled(opt.Size.ScaleDiv())
	if opt.MeshWidth != 0 {
		cfg = cfg.WithMesh(opt.MeshWidth, opt.MeshHeight)
	}
	if opt.Topology != "" {
		cfg.Topology = opt.Topology
	}
	if opt.Router != "" {
		cfg.Router = opt.Router
	}
	if opt.VCs != 0 {
		cfg.VCs = opt.VCs
	}
	if opt.VCDepth != 0 {
		cfg.VCDepth = opt.VCDepth
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p.cfg = cfg
	p.opt.Threads = th
	return p, nil
}

// countOps returns the loads plus stores one run of prog executes, over
// every phase, warm-up included: the operations the simulated cores
// issue.
func countOps(prog memsys.Program) uint64 {
	var n uint64
	for ph := 0; ph < prog.Phases(); ph++ {
		for t := 0; t < prog.Threads(); t++ {
			prog.EmitOps(ph, t, func(o memsys.Op) {
				if o.Kind == memsys.OpLoad || o.Kind == memsys.OpStore {
					n++
				}
			})
		}
	}
	return n
}

// workloadOps counts the simulated loads plus stores of every cell of
// the workload.
func workloadOps(pts []*point) (uint64, error) {
	var total uint64
	for _, p := range pts {
		for _, b := range p.benchs {
			prog, err := workloads.ByName(b, p.opt.Size, p.opt.Threads)
			if err != nil {
				return 0, err
			}
			total += countOps(prog) * uint64(len(p.protos))
		}
	}
	return total, nil
}
