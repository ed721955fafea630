package job

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/memsys"
)

// RenderText writes the outcome's tables exactly as cmd/trafficsim
// prints them to stdout, so every caller that renders an Outcome (the
// CLI, the perfbench benchmark) produces the same bytes for the same
// request.
//
// Matrix runs: an optional "NoC ..." header (printed only when the run
// deviates from the defaults or pins the mesh shape, matching the CLI's
// explicit-flag semantics via the request's non-zero fields), then one
// figure table per requested id, then the summary. Sweep runs: an
// optional header naming the knobs pinned across the whole sweep (never
// the swept axis), then the assembled curve table.
//
// Figure-table errors abort mid-stream after the already-rendered tables
// — the same progressive output the CLI produced.
func (o *Outcome) RenderText(w io.Writer, req Request) error {
	if o.Sweep != nil {
		var pins []string
		if req.Mesh != "" && o.Sweep.Axis != "mesh" {
			pins = append(pins, "mesh: "+formatMesh(req.Mesh))
		}
		if req.Topology != "" && o.Sweep.Axis != "topology" {
			pins = append(pins, "topology: "+req.Topology)
		}
		if req.Router != "" && o.Sweep.Axis != "router" {
			pins = append(pins, "router: "+req.Router)
		}
		if len(pins) > 0 {
			fmt.Fprintf(w, "NoC %s\n\n", strings.Join(pins, ", "))
		}
		fmt.Fprintln(w, o.Sweep.Table())
		return nil
	}
	m := o.Matrix
	if m.Topology != "mesh" || m.Router != "ideal" || req.Mesh != "" {
		header := fmt.Sprintf("NoC topology: %s, router: %s", m.Topology, m.Router)
		if req.Mesh != "" {
			header += ", mesh: " + formatMesh(req.Mesh)
		}
		fmt.Fprintf(w, "%s\n\n", header)
	}
	for _, id := range req.FigureIDs() {
		t, err := m.Figure(id)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, t)
	}
	if req.Summary {
		fmt.Fprintln(w, m.Summarize())
	}
	return nil
}

// formatMesh canonicalizes a validated "WxH" for headers ("04x4" prints
// as "4x4", the spelling the CLIs always printed).
func formatMesh(dims string) string {
	w, h, err := memsys.ParseMeshDims(dims)
	if err != nil {
		return dims
	}
	return memsys.FormatMeshDims(w, h)
}
