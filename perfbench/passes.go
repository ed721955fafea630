package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/memsys"
	"repro/internal/waste"
	"repro/internal/workloads"
)

// setupPass times the per-cell set-up calls the engine makes before a
// cell simulates, untraced: building each program once per point, then
// per cell memsys.NewEnv, core.NewProtocol and core.NewRunner. Nothing is
// run.
func setupPass(pts []*point) (time.Duration, error) {
	var total time.Duration
	for _, p := range pts {
		for _, b := range p.benchs {
			t0 := time.Now()
			prog, err := workloads.ByName(b, p.opt.Size, p.opt.Threads)
			total += time.Since(t0)
			if err != nil {
				return 0, err
			}
			for _, spec := range p.protos {
				t0 := time.Now()
				env, err := memsys.NewEnv(p.cfg, prog.FootprintBytes(), prog.Regions())
				if err != nil {
					return 0, err
				}
				proto, err := core.NewProtocol(env, spec)
				if err != nil {
					return 0, err
				}
				core.NewRunner(env, proto, prog)
				total += time.Since(t0)
			}
		}
	}
	return total, nil
}

// pass is one run of the workload's request.
type pass struct {
	workers   int
	wall, cpu time.Duration
	rss       uint64 // peak resident bytes during the pass
	outcome   *job.Outcome
	text      string // the rendered output
	err       error
}

// untracedPass submits the request through job.Run, renders it with
// Outcome.RenderText and waits, timing job.Run entry to rendered output.
// A point-cache workload gets an empty cache directory under scratch.
func untracedPass(w *workload, req job.Request, scratch string) (*pass, error) {
	var rc job.RunConfig
	if w.freshCache {
		dir, err := os.MkdirTemp(scratch, "pointcache-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		if rc.Cache, err = core.OpenPointCache(dir); err != nil {
			return nil, err
		}
	}
	debug.FreeOSMemory()
	resetPeakRSS()
	cpu0 := cpuTime()
	t0 := time.Now()
	p := &pass{workers: req.Workers}
	p.outcome, p.err = job.Run(context.Background(), req, rc)
	var buf bytes.Buffer
	if p.err == nil {
		p.err = p.outcome.RenderText(&buf, req)
	}
	p.wall = time.Since(t0)
	p.cpu = cpuTime() - cpu0
	p.text = buf.String()
	rss, err := peakRSS()
	if err != nil {
		return nil, err
	}
	p.rss = rss
	return p, nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's peak-RSS mark so the next reading
// covers one pass. Where the kernel refuses, the reading covers the
// process so far.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS reads the process's peak resident set size in bytes.
func peakRSS() (uint64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseUint(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb << 10, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("/proc/self/status has no VmHWM line")
}

// layerCounts sums what the traced pass reads from each layer's public
// accessors after every cell.
type layerCounts struct {
	loads, stores, rejected uint64
	lat                     *latHist

	events, cycles, clamped uint64
	runNs                   int64 // Runner.Run wall time, proto calls included

	packets, flitHops uint64
	measuredFlitHops  float64
	deflectedHops     uint64
	latWeighted       float64 // mean latency x delivered packets
	delivered         uint64
	utilWeighted      float64 // mean link utilization x window cycles
	utilCycles        int64
	instances         uint64
	usedWords         [3]uint64
	fetchedWords      [3]uint64
	wasteFlitHops     float64
	dramWordsFetched  uint64
}

func (lc *layerCounts) add(env *memsys.Env, tp *tracedProto, res *core.Result) {
	lc.loads += tp.loads
	lc.stores += tp.stores
	lc.rejected += tp.rejected
	lc.events += env.K.Steps()
	lc.cycles += uint64(env.K.Now())
	lc.clamped += env.K.Clamped()
	lc.packets += env.Mesh.Packets()
	lc.flitHops += env.Mesh.FlitHops()
	lc.measuredFlitHops += res.Total()
	lc.deflectedHops += res.Net.DeflectedHops
	lc.latWeighted += res.Net.LatencyMean * float64(res.Net.Delivered)
	lc.delivered += res.Net.Delivered
	lc.utilWeighted += res.Net.LinkUtilMean * float64(res.Net.Cycles)
	lc.utilCycles += res.Net.Cycles
	lc.instances += uint64(env.Prof.Instances())
	for l := range res.Waste {
		lc.usedWords[l] += res.Waste[l][waste.Used]
		lc.fetchedWords[l] += res.WasteTotal(waste.Level(l))
	}
	lc.wasteFlitHops += res.WasteShare * res.Total()
	for _, ch := range env.Chans {
		lc.dramWordsFetched += ch.BytesRead / 4
	}
}

// traced is the outcome of the traced pass.
type traced struct {
	tr      *tracer
	counts  *layerCounts
	outcome *job.Outcome
	text    string
	wall    time.Duration
}

// tracedPass drives every cell serially through the layers' public
// functions — workloads.ByName, memsys.NewEnv, core.NewProtocol,
// core.NewRunner, Runner.Run — with the protocol wrapped in tracedProto,
// assembles the outcome job.Run would return, writes sweep points
// through PointCache.Store and renders the result, recording a span
// around each call. A failing cell is left out of the outcome and
// counted by the checks.
func tracedPass(w *workload, pts []*point, sweep *core.SweepSpec, scratch string) (*traced, error) {
	var pc *core.PointCache
	if w.freshCache {
		dir, err := os.MkdirTemp(scratch, "pointcache-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		if pc, err = core.OpenPointCache(dir); err != nil {
			return nil, err
		}
	}
	tr := newTracer()
	lc := &layerCounts{lat: newLatHist()}
	root := tr.begin("pass", "", -1)
	var (
		matrices []*core.Matrix
		complete = true
	)
	for _, p := range pts {
		ps := tr.begin("point", strings.TrimSuffix(p.prefix, "|"), root)
		m := &core.Matrix{
			Size: p.opt.Size, Topology: p.cfg.Topology, Router: p.cfg.Router,
			Benchmarks: p.benchs, Protocols: p.protos,
			Results: make(map[string]map[string]*core.Result, len(p.benchs)),
		}
		for _, b := range p.benchs {
			row := make(map[string]*core.Result, len(p.protos))
			m.Results[b] = row
			s := tr.begin("workloads.build", p.prefix+b, ps)
			prog, err := workloads.ByName(b, p.opt.Size, p.opt.Threads)
			tr.end(s)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: traced %s%s: %v\n", p.prefix, b, err)
				complete = false
				continue
			}
			for _, spec := range p.protos {
				res, err := tracedCell(tr, ps, p.cellID(b, spec), p.cfg, spec, prog, lc)
				if err != nil {
					fmt.Fprintf(os.Stderr, "perfbench: traced %s: %v\n", p.cellID(b, spec), err)
					complete = false
					continue
				}
				row[spec] = res
			}
		}
		if pc != nil && complete {
			s := tr.begin("core.cache_store", "", ps)
			key, err := core.PointKeyFor(p.opt)
			if err == nil {
				err = pc.Store(key, m)
			}
			tr.end(s)
			if err != nil {
				return nil, err
			}
		}
		tr.end(ps)
		matrices = append(matrices, m)
	}
	o := &job.Outcome{Matrix: matrices[0]}
	if sweep != nil {
		res := &core.SweepResult{Spec: sweep.Spec, Axis: sweep.Axis, Expected: len(pts)}
		for i, m := range matrices {
			res.Points = append(res.Points, &core.SweepPoint{Value: sweep.Values[i], Matrix: m})
		}
		o = &job.Outcome{Sweep: res}
	}
	var buf bytes.Buffer
	if complete {
		s := tr.begin("job.render", "", root)
		err := o.RenderText(&buf, w.req)
		tr.end(s)
		if err != nil {
			return nil, err
		}
	}
	tr.end(root)
	tr.finish()
	wall := time.Duration(tr.spans[root].End - tr.spans[root].Start)
	return &traced{tr: tr, counts: lc, outcome: o, text: buf.String(), wall: wall}, nil
}

// tracedCell simulates one cell the way core.RunOne does, with a span
// around each layer's call.
func tracedCell(tr *tracer, parent int, id string, cfg memsys.Config, spec string, prog memsys.Program, lc *layerCounts) (*core.Result, error) {
	c := tr.begin("cell", id, parent)
	defer tr.end(c)
	s := tr.begin("memsys.new_env", id, c)
	env, err := memsys.NewEnv(cfg, prog.FootprintBytes(), prog.Regions())
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin("proto.new", id, c)
	inner, err := core.NewProtocol(env, spec)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	tp := newTracedProto(inner, env.K, tr, lc.lat)
	s = tr.begin("core.new_runner", id, c)
	r := core.NewRunner(env, tp, prog)
	tr.end(s)
	run := tr.begin("sim.run", id, c)
	tp.issue.parent, tp.barrier.parent = run, run
	err = r.Run()
	tr.end(run)
	tp.flush(id)
	lc.runNs += tr.spans[run].End - tr.spans[run].Start
	if err != nil {
		return nil, err
	}
	res := &core.Result{
		Protocol:      inner.Name(),
		Benchmark:     prog.Name(),
		FlitHops:      env.Traffic.Snapshot(),
		Waste:         env.Prof.Snapshot(),
		ExecCycles:    r.ExecCycles(),
		WasteShare:    env.Traffic.WasteShare(),
		Net:           env.Mesh.Stats(),
		KernelClamped: env.K.Clamped(),
	}
	for _, tb := range r.Times {
		res.Time.Busy += tb.Busy
		res.Time.OnChip += tb.OnChip
		res.Time.ToMC += tb.ToMC
		res.Time.Mem += tb.Mem
		res.Time.FromMC += tb.FromMC
		res.Time.Sync += tb.Sync
	}
	lc.add(env, tp, res)
	return res, nil
}
