package job

import (
	"context"
	"errors"
	"sync"

	"repro/internal/core"
)

// RunConfig is the per-run policy a caller attaches to a Request: where
// cached sweep points live and where progress events go. The zero value
// runs without a cache and without events.
type RunConfig struct {
	// Cache, if non-nil, is the content-addressed sweep-point store:
	// points already present are served from disk bit-identically, and
	// completed ones persist as the sweep goes — which is also what makes
	// an interrupted sweep resumable. Sweep requests only; Run rejects a
	// cache attached to a matrix request.
	Cache *core.PointCache
	// Events, if non-nil, receives the run's unified progress stream
	// under the contract documented in events.go: serialized delivery,
	// lifecycle order per point.
	Events func(Event)
}

// Outcome is a run's assembled result: exactly one of Matrix (matrix
// requests) or Sweep (sweep requests) is non-nil. After a cancelled or
// failed sweep, Sweep still carries every point that completed — partial
// results are returned alongside the error, never discarded.
type Outcome struct {
	// Matrix is the matrix run's full benchmark x protocol result.
	Matrix *core.Matrix
	// Sweep is the sweep run's per-point results in sweep order.
	Sweep *core.SweepResult
}

// eventSink serializes the unified stream: one mutex covers every
// emitting callback (per-cell and per-point alike), so delivery order IS
// the total order.
type eventSink struct {
	mu sync.Mutex
	fn func(Event)
}

func (s *eventSink) emit(ev Event) {
	if s.fn == nil {
		return
	}
	s.mu.Lock()
	s.fn(ev)
	s.mu.Unlock()
}

// Run executes a Request through the core engine and returns the
// assembled Outcome. Matrix requests run via core.RunMatrixContext;
// sweep requests via core.RunSweep, inheriting the shared worker pool,
// bit-identical-at-any-worker-count assembly, cache/resume machinery and
// context cancellation. Both the engine's per-cell callback and its
// per-point callback are funneled into rc.Events as one serialized
// stream.
//
// Run validates the request first (callers usually Validate earlier, to
// tell a usage error from a run failure). A cancelled or failing sweep
// returns the partial Outcome alongside the error — with a cache
// attached, those points are already persisted, so rerunning the same
// request resumes instead of restarting.
func Run(ctx context.Context, req Request, rc RunConfig) (*Outcome, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	opt, err := req.matrixOptions()
	if err != nil {
		return nil, err
	}
	sink := &eventSink{fn: rc.Events}
	opt.Progress = func(bench, proto string) {
		sink.emit(Event{Kind: KindCell, Bench: bench, Protocol: proto})
	}
	if !req.IsSweep() {
		if rc.Cache != nil {
			return nil, errors.New("the point cache serves sweep runs only; drop the cache or add a sweep")
		}
		m, err := core.RunMatrixContext(ctx, opt)
		if err != nil {
			return nil, err
		}
		return &Outcome{Matrix: m}, nil
	}
	return runSweep(ctx, opt, req, rc, sink)
}

// runSweep runs one sweep, translating the engine's point events into
// the unified stream. The engine serializes its own callback; the shared
// sink's mutex additionally orders point events against cell events, so
// the merged stream has one total order.
func runSweep(ctx context.Context, opt core.MatrixOptions, req Request, rc RunConfig, sink *eventSink) (*Outcome, error) {
	sopt := core.SweepOptions{
		Cache:     rc.Cache,
		MaxPoints: req.MaxPoints,
		Progress: func(ev core.SweepProgress) {
			e := Event{
				Kind:   KindPoint,
				Status: ev.Status.String(),
				Point:  ev.Point,
				Total:  ev.Total,
				Axis:   ev.Axis,
				Value:  ev.Value,
			}
			if ev.Err != nil {
				e.Error = ev.Err.Error()
			}
			sink.emit(e)
		},
	}
	res, err := core.RunSweep(ctx, opt, req.Sweep, sopt)
	var out *Outcome
	if res != nil {
		out = &Outcome{Sweep: res}
	}
	return out, err
}
