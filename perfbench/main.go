// Command perfbench is the repository benchmark. It runs one named
// workload through job.Run, the path the CLIs use, as a closed loop: one
// caller submits the request, renders the outcome and waits, then submits
// it again until the measuring time is spent. Every simulated result is
// checked against its reference. With -trace 0 it prints the end-to-end
// metrics; with -trace 1 it adds a serial traced pass that attributes the
// same work to the repository's layers and prints the per-layer metrics.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 54, "failed": 0, "metrics": {"wall_s": {"value": 6.1, "unit": "s"}, ...}}
//
// Run it from the repository root through perfbench/run.sh, which builds
// it. README.md in this directory says why each workload exists and which
// layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/job"
)

// A run times set-up passes until it has made setupRepeats of them and
// spent setupTime; setup_s is their median. A Tiny set-up pass takes tens
// of milliseconds and the first few in a process can take twice as long,
// so a count alone would leave the median to a few noisy samples.
const (
	setupRepeats = 5
	setupTime    = 2 * time.Second
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
		seed    = flag.Uint64("seed", 0, "input seed (noc-cycle draws its injection rates from it; 0 = the patterns' defaults)")
		seconds = flag.Int("seconds", 10, "measuring time: untraced passes repeat while the next should end within it (at least one pass)")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
		out     = flag.String("out", ".bench_build/perfbench-out", "directory for spans, profiles and point caches")
		record  = flag.Bool("record", false, "simulate every digest-checked cell and rewrite "+digestsPath+", then exit")
	)
	flag.Parse()
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	if *record {
		if err := recordDigests(*out); err != nil {
			fatal(err)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace %d: want 0 or 1", *trace))
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds %d: want at least 1", *seconds))
	}
	w, err := lookupWorkload(*name, *seed)
	if err != nil {
		fatal(err)
	}
	b, err := newBench(w, *out)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("workload %s, seed %d: %s\n", w.name, *seed, w.inputs)
	var res *result
	if *trace == 0 {
		res, err = b.endToEnd(time.Duration(*seconds) * time.Second)
	} else {
		res, err = b.layered(fmt.Sprintf("%s-seed%d", w.name, *seed))
	}
	if err != nil {
		fatal(err)
	}
	res.print()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// bench holds one workload's resolved inputs and references.
type bench struct {
	w     *workload
	pts   []*point
	sweep *core.SweepSpec
	ref   *reference
	cells []string // every cell id a pass must produce
	ops   uint64   // simulated loads and stores per pass
	out   string
}

func newBench(w *workload, out string) (*bench, error) {
	b := &bench{w: w, out: out}
	var err error
	if b.ref, err = loadReference(w); err != nil {
		return nil, err
	}
	if b.pts, b.sweep, err = resolvePoints(w.req); err != nil {
		return nil, err
	}
	for _, p := range b.pts {
		for _, bn := range p.benchs {
			for _, pr := range p.protos {
				b.cells = append(b.cells, p.cellID(bn, pr))
			}
		}
	}
	if b.ops, err = workloadOps(b.pts); err != nil {
		return nil, err
	}
	return b, nil
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a run prints.
type result struct {
	lines     []string // report lines before the metrics
	tail      []string // report lines after the metrics
	attempted int
	failed    int
	// consistent is false when the determinism cross-check failed.
	consistent bool
	metrics    map[string]metric
	order      []string
}

func newResult() *result { return &result{consistent: true, metrics: map[string]metric{}} }

func (r *result) set(name string, v float64, unit string) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{v, unit}
}

func (r *result) logf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *result) print() {
	for _, l := range r.lines {
		fmt.Println(l)
	}
	for _, name := range r.order {
		m := r.metrics[name]
		fmt.Println(fmtMetric(name, m.Value, m.Unit))
	}
	for _, l := range r.tail {
		fmt.Println(l)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.consistent, r.attempted, r.failed, r.metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// checkPass counts a pass's cells as attempted and its failed cells as
// failed, naming each failure.
func (b *bench) checkPass(r *result, label string, o *job.Outcome, err error) {
	if err != nil {
		r.logf("%s: engine error: %v", label, err)
	}
	failed := b.ref.check(b.cells, o)
	r.attempted += len(b.cells)
	r.failed += len(failed)
	for _, id := range failed {
		r.logf("%s: cell %s FAILED its reference check", label, id)
	}
}

// endToEnd measures the workload untraced: setupRepeats set-up passes,
// then request passes until the measuring time is spent, reporting each
// timing as the median over passes.
func (b *bench) endToEnd(budget time.Duration) (*result, error) {
	r := newResult()
	var setups []float64
	for t0 := time.Now(); len(setups) < setupRepeats || time.Since(t0) < setupTime; {
		// Start each set-up pass from a collected heap with its free pages
		// returned to the kernel, so neither the collections nor the page
		// faults inside it depend on what ran before.
		debug.FreeOSMemory()
		d, err := setupPass(b.pts)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	var walls, cpus, rss []float64
	var simCycles float64
	start := time.Now()
	for n := 1; ; n++ {
		p, err := untracedPass(b.w, b.w.req, b.out)
		if err != nil {
			return nil, err
		}
		b.checkPass(r, fmt.Sprintf("pass %d", n), p.outcome, p.err)
		walls = append(walls, p.wall.Seconds())
		cpus = append(cpus, p.cpu.Seconds())
		rss = append(rss, float64(p.rss)/1e6)
		if simCycles == 0 && p.err == nil {
			simCycles = execCycles(p.outcome)
			b.accuracy(r, p.outcome)
		}
		elapsed := time.Since(start)
		if elapsed+elapsed/time.Duration(n) > budget {
			break
		}
	}
	wall := median(walls)
	r.logf("passes: %d untraced (wall s: %s), %d set-up (s: %s)", len(walls), fmtList(walls), len(setups), fmtList(setups))
	r.set("wall_s", wall, "s")
	r.set("cpu_s", median(cpus), "s")
	r.set("sim_cycles_per_s", simCycles/wall, "cycles/s")
	r.set("sim_ops_per_s", float64(b.ops)/wall, "ops/s")
	r.set("setup_s", median(setups), "s")
	r.set("peak_rss_mb", median(rss), "MB")
	// failed_frac is printed beside the metrics but reported to the JSON
	// line as its attempted and failed counts: a metric there must never
	// be 0.
	r.tail = append(r.tail, fmt.Sprintf("%s (%d of %d cells)",
		fmtMetric("failed_frac", float64(r.failed)/float64(r.attempted), "fraction"), r.failed, r.attempted))
	return r, nil
}

// execCycles sums the simulated measured-region cycles of every cell.
func execCycles(o *job.Outcome) float64 {
	var s float64
	for _, c := range outcomeCells(o) {
		if c.res != nil {
			s += float64(c.res.ExecCycles)
		}
	}
	return s
}

var summaryLine = regexp.MustCompile(`^(.*\S)\s+measured\s+(-?[\d.]+)%\s+paper\s+(-?[\d.]+)%$`)

// accuracy prints the workload's paper-accuracy lines: the measured
// headline averages beside the paper's, with their difference.
func (b *bench) accuracy(r *result, o *job.Outcome) {
	if b.w.accuracy == nil || o == nil || o.Matrix == nil {
		return
	}
	r.logf("paper accuracy at %s scale (inputs are scaled down from the paper's; the paper's published averages are the only validation):", o.Matrix.Size)
	for _, line := range strings.Split(o.Matrix.Summarize().String(), "\n") {
		m := summaryLine.FindStringSubmatch(line)
		if m == nil || !b.w.accuracy(m[1]) {
			continue
		}
		meas, _ := strconv.ParseFloat(m[2], 64)
		paper, _ := strconv.ParseFloat(m[3], 64)
		r.logf("  %-40s measured %6.1f%%  paper %6.1f%%  error %+6.1f pp", m[1], meas, paper, meas-paper)
	}
}

// layered runs the workload once untraced through the pool (with Go
// runtime counters around it), once untraced serially when the pool has
// more than one worker, and once traced serially under a CPU profile. It
// cross-checks that all three give bit-identical cells and reports the
// per-layer metrics.
func (b *bench) layered(tag string) (*result, error) {
	r := newResult()
	rt := readRuntime()
	pooled, err := untracedPass(b.w, b.w.req, b.out)
	if err != nil {
		return nil, err
	}
	rt = readRuntime().minus(rt)
	b.checkPass(r, "pooled pass", pooled.outcome, pooled.err)
	serial := pooled
	if b.w.req.Workers != 1 {
		req := b.w.req
		req.Workers = 1
		if serial, err = untracedPass(b.w, req, b.out); err != nil {
			return nil, err
		}
		b.checkPass(r, "serial pass", serial.outcome, serial.err)
	}

	profPath := filepath.Join(b.out, "cpu-"+tag+".pprof")
	f, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	t, err := tracedPass(b.w, b.pts, b.sweep, b.out)
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	b.checkPass(r, "traced pass", t.outcome, nil)
	spansPath := filepath.Join(b.out, "spans-"+tag+".json")
	if err := t.tr.write(spansPath); err != nil {
		return nil, err
	}
	shares, err := foldProfile(profPath)
	if err != nil {
		return nil, err
	}

	untraced := []*pass{pooled}
	if serial != pooled {
		untraced = append(untraced, serial)
	}
	tc := outcomeCells(t.outcome)
	for _, p := range untraced {
		label := fmt.Sprintf("the untraced %d-worker pass", p.workers)
		for _, id := range diffCells(b.cells, outcomeCells(p.outcome), tc) {
			r.consistent = false
			r.logf("determinism: cell %s differs between %s and the traced pass", id, label)
		}
		if p.text != t.text {
			r.consistent = false
			r.logf("determinism: the rendered output differs between %s and the traced pass", label)
		}
	}
	if r.consistent {
		r.logf("determinism: %d untraced pass(es) and the traced pass agree on all %d cells and the rendered output",
			len(untraced), len(b.cells))
	}
	r.logf("spans: %s; CPU profile: %s", spansPath, profPath)

	tr, lc := t.tr, t.counts
	secs := func(name string) float64 { return tr.selfTime(name).Seconds() }
	r.set("workloads.build_s", secs("workloads.build"), "s")
	r.set("workloads.ops", float64(b.ops), "count")
	r.set("memsys.new_env_s", secs("memsys.new_env"), "s")
	r.set("proto.new_s", secs("proto.new"), "s")
	r.set("core.new_runner_s", secs("core.new_runner"), "s")
	r.set("proto.issue_s", secs("proto.issue"), "s")
	r.set("proto.barrier_s", secs("proto.barrier"), "s")
	r.set("proto.loads", float64(lc.loads), "count")
	r.set("proto.stores", float64(lc.stores), "count")
	r.set("proto.store_retry_frac", ratio(float64(lc.rejected), float64(lc.stores+lc.rejected)), "fraction")
	r.set("proto.load_lat_p50_cycles", lc.lat.quantile(0.50), "cycles")
	r.set("proto.load_lat_p99_cycles", lc.lat.quantile(0.99), "cycles")
	r.set("sim.run_s", secs("sim.run"), "s")
	r.set("sim.events", float64(lc.events), "count")
	r.set("sim.cycles", float64(lc.cycles), "cycles")
	r.set("sim.clamped", float64(lc.clamped), "count")
	r.set("sim.ns_per_event", ratio(float64(lc.runNs), float64(lc.events)), "ns")
	r.set("mesh.packets", float64(lc.packets), "count")
	r.set("mesh.flit_hops", float64(lc.flitHops), "count")
	r.set("mesh.useful_hop_frac", ratio(lc.measuredFlitHops, lc.measuredFlitHops+float64(lc.deflectedHops)), "fraction")
	r.set("mesh.mean_lat_cycles", ratio(lc.latWeighted, float64(lc.delivered)), "cycles")
	r.set("mesh.link_util_pct", 100*ratio(lc.utilWeighted, float64(lc.utilCycles)), "%")
	r.set("waste.instances", float64(lc.instances), "count")
	for l, name := range []string{"l1", "l2", "mem"} {
		r.set("waste."+name+"_used_frac", ratio(float64(lc.usedWords[l]), float64(lc.fetchedWords[l])), "fraction")
	}
	r.set("waste.traffic_waste_frac", ratio(lc.wasteFlitHops, lc.measuredFlitHops), "fraction")
	r.set("dram.words_fetched", float64(lc.dramWordsFetched), "count")
	r.set("core.cache_store_s", secs("core.cache_store"), "s")
	r.set("job.render_s", secs("job.render"), "s")
	r.set("go.alloc_mb", rt.allocBytes/1e6, "MB")
	r.set("go.mallocs_per_op", ratio(rt.allocObjects, float64(b.ops)), "count")
	r.set("go.gc_cycles", rt.gcCycles, "count")
	r.set("go.gc_cpu_frac", ratio(rt.gcCPU, rt.totalCPU), "fraction")
	for _, p := range profiledPkgs {
		r.set("cpu."+p, shares[p], "fraction")
	}
	r.set("cpu.go-runtime", shares["go-runtime"], "fraction")
	r.set("trace.overhead_frac", t.wall.Seconds()/serial.wall.Seconds()-1, "fraction")
	return r, nil
}

// runtimeSample is a reading of the Go runtime's cumulative counters.
type runtimeSample struct {
	allocBytes, allocObjects, gcCycles, gcCPU, totalCPU float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			v[i] = s[i].Value.Float64()
		}
	}
	return runtimeSample{v[0], v[1], v[2], v[3], v[4]}
}

func (a runtimeSample) minus(b runtimeSample) runtimeSample {
	return runtimeSample{
		a.allocBytes - b.allocBytes, a.allocObjects - b.allocObjects, a.gcCycles - b.gcCycles,
		a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU,
	}
}

// recordDigests simulates every cell the digest-checked workloads can
// produce — noc-cycle at each injection rate — and rewrites digestsPath.
// It refuses to record a cell that errs or clamps.
func recordDigests(out string) error {
	all := map[string]map[string]string{}
	for _, name := range []string{"paper-small", "noc-cycle"} {
		w, err := lookupWorkload(name, 0)
		if err != nil {
			return err
		}
		var reqs []job.Request
		if name == "noc-cycle" {
			for _, rate := range nocRates {
				req := w.req
				req.Benchmarks = nocBenchmarks(func(int) string { return rate })
				reqs = append(reqs, req)
			}
		} else {
			reqs = []job.Request{w.req}
		}
		all[name] = map[string]string{}
		for _, req := range reqs {
			p, err := untracedPass(w, req, out)
			if err != nil {
				return err
			}
			if p.err != nil {
				return fmt.Errorf("%s: %w", name, p.err)
			}
			for _, c := range outcomeCells(p.outcome) {
				if c.res == nil || c.res.KernelClamped != 0 {
					return fmt.Errorf("%s: cell %s did not complete cleanly", name, c.id)
				}
				if all[name][c.id], err = digest(c.res); err != nil {
					return err
				}
			}
			fmt.Fprintf(os.Stderr, "perfbench: recorded %d cells of %s\n", len(all[name]), name)
		}
	}
	buf, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(digestsPath, append(buf, '\n'), 0o644)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func fmtMetric(name string, v float64, unit string) string {
	return fmt.Sprintf("%-28s %18s %s", name, strconv.FormatFloat(v, 'g', 8, 64), unit)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return strings.Join(parts, " ")
}
