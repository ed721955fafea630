package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// profiledPkgs are the repro/internal packages the sampled view names.
var profiledPkgs = []string{
	"sim", "mesi", "denovo", "coher", "cache", "bloom",
	"waste", "dram", "mesh", "memsys", "core", "workloads",
}

// runtimePrefixes mark a frame as Go runtime work.
var runtimePrefixes = []string{"runtime.", "internal/runtime/", "runtime/internal/", "internal/bytealg."}

// foldProfile reads a CPU profile through `go tool pprof -traces` and
// returns, per package of profiledPkgs, the share of samples whose
// innermost repro/internal frame lies in it (runtime frames below it are
// charged to it), and under "go-runtime" the share of samples whose leaf
// frame is in the runtime.
func foldProfile(path string) (map[string]float64, error) {
	var stderr bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	byPkg := map[string]time.Duration{}
	var total, runtimeLeaf, weight time.Duration
	var frames []string
	flush := func() {
		if len(frames) > 0 {
			total += weight
			if isRuntime(frames[0]) {
				runtimeLeaf += weight
			}
			if pkg := owner(frames); pkg != "" {
				byPkg[pkg] += weight
			}
		}
		weight, frames = 0, frames[:0]
	}
	// Each sample is a separator line, then "<value> <leaf frame>", then
	// one caller frame per line out to the root.
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inTrace := false
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		switch {
		case strings.HasPrefix(sc.Text(), "-----------+"):
			flush()
			inTrace = true
		case !inTrace || len(fields) == 0:
		case len(frames) == 0:
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				return nil, fmt.Errorf("go tool pprof: unexpected sample line %q", sc.Text())
			}
			weight = d
			frames = append(frames, fields[1])
		default:
			frames = append(frames, fields[0])
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, fmt.Errorf("go tool pprof: profile %s holds no samples", path)
	}
	shares := map[string]float64{"go-runtime": float64(runtimeLeaf) / float64(total)}
	for _, p := range profiledPkgs {
		shares[p] = float64(byPkg[p]) / float64(total)
	}
	return shares, nil
}

func isRuntime(fn string) bool {
	for _, p := range runtimePrefixes {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// owner returns the repro/internal package a sample is charged to: that
// of its innermost frame in repro/internal, or "" when the benchmark's
// own code (package main, such as the tracer) or no repository code lies
// nearer the leaf.
func owner(frames []string) string {
	for _, fn := range frames {
		if strings.HasPrefix(fn, "main.") {
			return ""
		}
		if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				rest = rest[:i]
			}
			return rest
		}
	}
	return ""
}
