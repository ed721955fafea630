package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"reflect"

	"repro/internal/core"
	"repro/internal/job"
)

// digestsPath holds the per-cell reference digests of the workloads that
// have no golden file, keyed by workload and then by cell id. Regenerate
// it with -record after an intentional model change.
const digestsPath = "perfbench/digests.json"

// cellResult is one simulated cell of a pass.
type cellResult struct {
	id  string
	res *core.Result
}

// outcomeCells lists a pass's cells in point-major matrix order.
func outcomeCells(o *job.Outcome) []cellResult {
	if o == nil {
		return nil
	}
	if o.Sweep == nil {
		return matrixCells("", o.Matrix)
	}
	var out []cellResult
	for _, p := range o.Sweep.Points {
		out = append(out, matrixCells(o.Sweep.Axis+"="+p.Value+"|", p.Matrix)...)
	}
	return out
}

func matrixCells(prefix string, m *core.Matrix) []cellResult {
	var out []cellResult
	for _, b := range m.Benchmarks {
		for _, p := range m.Protocols {
			out = append(out, cellResult{prefix + b + "/" + p, m.Get(b, p)})
		}
	}
	return out
}

// digest is the sha256 of a result's JSON encoding, which carries every
// simulated statistic the figures are drawn from.
func digest(r *core.Result) (string, error) {
	buf, err := json.Marshal(r)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:]), nil
}

// goldenFile mirrors the snapshot internal/core's golden test pins.
type goldenFile struct {
	Figures map[string]*core.Table
	Summary *core.Summary
}

// reference is what a workload's cells are checked against.
type reference struct {
	golden  *goldenFile
	digests map[string]string
}

// loadReference reads the workload's golden file or recorded digests. It
// only reads: the golden file belongs to the core package's tests.
func loadReference(w *workload) (*reference, error) {
	if w.golden != "" {
		raw, err := os.ReadFile(w.golden)
		if err != nil {
			return nil, err
		}
		var g goldenFile
		if err := json.Unmarshal(raw, &g); err != nil {
			return nil, fmt.Errorf("%s: %w", w.golden, err)
		}
		return &reference{golden: &g}, nil
	}
	all, err := readDigests()
	if err != nil {
		return nil, err
	}
	if len(all[w.name]) == 0 {
		return nil, fmt.Errorf("%s has no digests for %s; record them with -record", digestsPath, w.name)
	}
	return &reference{digests: all[w.name]}, nil
}

func readDigests() (map[string]map[string]string, error) {
	raw, err := os.ReadFile(digestsPath)
	if err != nil {
		return nil, err
	}
	all := map[string]map[string]string{}
	if err := json.Unmarshal(raw, &all); err != nil {
		return nil, fmt.Errorf("%s: %w", digestsPath, err)
	}
	return all, nil
}

// check returns the ids of the pass's failed cells among want, the cells
// the pass should have produced. A cell fails when it is missing (the
// engine returned an error), when the kernel clamped any event, or when
// its statistics differ from the reference.
func (ref *reference) check(want []string, o *job.Outcome) []string {
	got := map[string]*core.Result{}
	for _, c := range outcomeCells(o) {
		if c.res != nil {
			got[c.id] = c.res
		}
	}
	bad := map[string]bool{}
	for _, id := range want {
		r := got[id]
		if r == nil || r.KernelClamped != 0 {
			bad[id] = true
		}
	}
	switch {
	case o == nil:
	case ref.golden != nil && len(bad) > 0:
		// The figures need every cell, so none of the others can be checked.
		for _, id := range want {
			bad[id] = true
		}
	case ref.golden != nil:
		for _, id := range ref.goldenMismatches(o.Matrix, want) {
			bad[id] = true
		}
	default:
		for id, r := range got {
			if d, err := digest(r); err != nil || d != ref.digests[id] {
				bad[id] = true
			}
		}
	}
	var failed []string
	for _, id := range want {
		if bad[id] {
			failed = append(failed, id)
		}
	}
	return failed
}

// goldenMismatches compares the matrix's figures and summary with the
// golden snapshot field for field, after the same JSON round trip the
// golden test applies. A drifted figure row fails its cell; a drifted
// summary, or a figure whose shape changed, fails every cell, since each
// is computed over the whole matrix.
func (ref *reference) goldenMismatches(m *core.Matrix, all []string) []string {
	got := goldenFile{Figures: map[string]*core.Table{}, Summary: m.Summarize()}
	for id := range ref.golden.Figures {
		t, err := m.Figure(id)
		if err != nil {
			return all
		}
		got.Figures[id] = t
	}
	buf, err := json.Marshal(&got)
	if err != nil {
		return all
	}
	var rt goldenFile
	if err := json.Unmarshal(buf, &rt); err != nil {
		return all
	}
	if !reflect.DeepEqual(ref.golden.Summary, rt.Summary) {
		return all
	}
	var bad []string
	for id, w := range ref.golden.Figures {
		g := rt.Figures[id]
		if len(w.Rows) != len(g.Rows) || !reflect.DeepEqual(w.Columns, g.Columns) {
			return all
		}
		for i := range w.Rows {
			if !reflect.DeepEqual(w.Rows[i], g.Rows[i]) {
				bad = append(bad, g.Rows[i].Bench+"/"+g.Rows[i].Protocol)
			}
		}
	}
	return bad
}

// diffCells reports the cells whose results differ between two passes,
// field for field; a cell missing from either side differs.
func diffCells(want []string, a, b []cellResult) []string {
	am, bm := map[string]*core.Result{}, map[string]*core.Result{}
	for _, c := range a {
		am[c.id] = c.res
	}
	for _, c := range b {
		bm[c.id] = c.res
	}
	var diff []string
	for _, id := range want {
		if am[id] == nil || bm[id] == nil || !reflect.DeepEqual(am[id], bm[id]) {
			diff = append(diff, id)
		}
	}
	return diff
}
