package job

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

// The unified stream's total order, on a real parallel sweep: delivery is
// serialized (the callback is never concurrent), and each point's
// lifecycle events arrive in order — simulating (or cached) strictly
// before done.
func TestRunUnifiedStreamTotalOrder(t *testing.T) {
	var events []Event
	req := Request{Sweep: "hotspot(t=1,2)", Protocols: []string{"MESI"}}
	out, err := Run(context.Background(), req, RunConfig{
		// Appending without a lock is the point: emit serializes every
		// callback under one mutex, so this is race-free by contract (the
		// race detector enforces it).
		Events: func(ev Event) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if out.Sweep == nil || len(out.Sweep.Points) != 2 {
		t.Fatalf("outcome = %+v, want a 2-point sweep", out)
	}

	begun := map[int]bool{}
	done := map[int]bool{}
	for i, ev := range events {
		switch ev.Kind {
		case KindCell:
			if ev.Bench == "" || ev.Protocol == "" {
				t.Fatalf("cell event %d missing bench/protocol: %+v", i, ev)
			}
		case KindPoint:
			switch ev.Status {
			case StatusSimulating, StatusCached:
				begun[ev.Point] = true
			case StatusDone:
				if !begun[ev.Point] {
					t.Fatalf("point %d done before simulating/cached (event %d)", ev.Point, i)
				}
				done[ev.Point] = true
			case StatusCacheCorrupt, StatusStoreFailed:
				t.Fatalf("unexpected warning event without a cache: %+v", ev)
			default:
				t.Fatalf("unknown point status %q", ev.Status)
			}
		default:
			t.Fatalf("unknown event kind %q", ev.Kind)
		}
	}
	if len(done) != 2 {
		t.Fatalf("saw done events for %d points, want 2", len(done))
	}
}

// A failing cache store is a loud warning event, never the run's error:
// the sweep completes with every point in the table, and the stream says
// which points will need resimulating on a later resume.
func TestRunStoreFailedEvent(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	cache, err := core.OpenPointCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Swap the cache directory for a regular file: every Load and Store
	// inside it now fails with ENOTDIR — the persistent-failure shape a
	// broken disk or tampered path produces.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}

	var statuses []string
	req := Request{Sweep: "hotspot(t=1,2)", Protocols: []string{"MESI"}, Workers: 1}
	out, err := Run(context.Background(), req, RunConfig{
		Cache: cache,
		Events: func(ev Event) {
			if ev.Kind == KindPoint {
				statuses = append(statuses, ev.Status)
				if ev.Status == StatusStoreFailed && ev.Error == "" {
					t.Errorf("store-failed event carries no error: %+v", ev)
				}
			}
		},
	})
	if err != nil {
		t.Fatalf("Run must not fail on store errors: %v", err)
	}
	if len(out.Sweep.Points) != 2 {
		t.Fatalf("sweep completed %d/2 points", len(out.Sweep.Points))
	}
	failed := 0
	for _, s := range statuses {
		if s == StatusStoreFailed {
			failed++
		}
	}
	if failed != 2 {
		t.Fatalf("store-failed events = %d (statuses %v), want one per point", failed, statuses)
	}
}

// Run rejects malformed requests loudly, in the registries' own words —
// the messages trafficsim prints — and refuses a point cache on a matrix
// request instead of silently running uncached.
func TestRunValidates(t *testing.T) {
	cases := []struct {
		req  Request
		want string
	}{
		{Request{Size: "huge"}, `unknown size "huge"`},
		{Request{Sweep: "hotspot(t=4)"}, "no parameter has multiple values"},
		{Request{Sweep: "hotspot(t=1,2)", Benchmarks: []string{"FFT"}}, "sets the benchmark axis"},
		{Request{Protocols: []string{"NOPE"}, Benchmarks: []string{"FFT"}}, "NOPE"},
	}
	for _, c := range cases {
		out, err := Run(context.Background(), c.req, RunConfig{})
		if err == nil || out != nil {
			t.Fatalf("Run(%+v) = %v, %v; want an error", c.req, out, err)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("Run(%+v): error %q does not contain %q", c.req, err, c.want)
		}
	}
	cache, err := core.OpenPointCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Figures: []string{"net"}, Benchmarks: []string{"FFT"}, Protocols: []string{"MESI"}}
	if out, err := Run(context.Background(), req, RunConfig{Cache: cache}); err == nil || out != nil {
		t.Fatalf("Run of a matrix with a point cache: out = %v, err = %v; want a loud error", out, err)
	}
}

// FprintInventory renders every inventory papertables prints, and a
// malformed grid is an error rather than a silently defaulted table.
func TestFprintInventory(t *testing.T) {
	var sb strings.Builder
	if err := FprintInventory(&sb, "4x4"); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table 4.1", "Router models", "Protocol registry", "Sweep axes", "Table 4.2"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("inventory lacks %q", want)
		}
	}
	if err := FprintInventory(&sb, "bogus"); err == nil {
		t.Error(`FprintInventory(_, "bogus") succeeded, want a mesh error`)
	}
}

// ExampleRun shows the orchestration layer's whole surface: a request, a
// config with an event sink, an outcome rendered to the CLI's text.
func ExampleRun() {
	req := Request{Sweep: "hotspot(t=1,2)", Protocols: []string{"MESI"}, Workers: 1}
	points := 0
	out, err := Run(context.Background(), req, RunConfig{
		Events: func(ev Event) {
			if ev.Kind == KindPoint && ev.Status == StatusDone {
				points++
			}
		},
	})
	if err != nil {
		fmt.Println("run failed:", err)
		return
	}
	fmt.Printf("%d/%d points, axis %s\n", points, out.Sweep.Expected, out.Sweep.Axis)
	// Output:
	// 2/2 points, axis hotspot.t
}
