package job

import (
	"context"
	"errors"
	"sync"

	"repro/internal/core"
)

// RunConfig is the per-run policy a transport attaches to a Request:
// where cached results live and where progress events go. The zero value
// runs without a cache and without events.
type RunConfig struct {
	// Cache, if non-nil, is the content-addressed result store: sweep
	// points (and whole matrices) already present are served from disk
	// bit-identically, and completed ones persist as the run goes — which
	// is also what makes an interrupted run resumable.
	Cache *core.PointCache
	// Events, if non-nil, receives the run's unified progress stream
	// under the contract documented in events.go: serialized delivery,
	// gap-free Seq, lifecycle order per point.
	Events func(Event)
}

// Outcome is a run's assembled result: exactly one of Matrix (matrix
// requests) or Sweep (sweep requests) is non-nil. After a cancelled or
// failed sweep, Sweep still carries every point that completed — partial
// results are returned alongside the error, never discarded.
type Outcome struct {
	// Matrix is the matrix run's full benchmark x protocol result.
	Matrix *core.Matrix `json:"matrix,omitempty"`
	// Sweep is the sweep run's per-point results in sweep order.
	Sweep *core.SweepResult `json:"sweep,omitempty"`
	// Cached reports that a matrix run was served whole from the cache
	// (sweep points carry their own per-point Cached flags).
	Cached bool `json:"cached,omitempty"`
}

// eventSink serializes the unified stream: one mutex covers every
// emitting callback (per-cell and per-point alike), and Seq is assigned
// under it, so delivery order IS the total order.
type eventSink struct {
	mu   sync.Mutex
	next int64
	fn   func(Event)
}

func (s *eventSink) emit(ev Event) {
	if s == nil || s.fn == nil {
		return
	}
	s.mu.Lock()
	ev.Seq = s.next
	s.next++
	s.fn(ev)
	s.mu.Unlock()
}

// Run executes a validated Request through the core engine and returns
// the assembled Outcome. Matrix requests run via core.RunMatrixContext;
// sweep requests via core.RunSweep, inheriting the shared worker
// pool, bit-identical-at-any-worker-count assembly, cache/resume
// machinery and context cancellation. Both the engine's per-cell
// callback and its per-point callback are funneled into rc.Events as one
// serialized stream.
//
// Errors: a UsageError means the request itself is wrong (callers
// usually Validate first, making that unreachable); anything else is a
// run failure. A cancelled or failing sweep returns the partial Outcome
// alongside the error — with a cache attached, those points are already
// persisted, so resubmitting the same request resumes instead of
// restarting.
func Run(ctx context.Context, req Request, rc RunConfig) (*Outcome, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	opt, err := req.matrixOptions()
	if err != nil {
		return nil, usage(err)
	}
	sink := &eventSink{fn: rc.Events}
	opt.Progress = func(bench, proto string) {
		sink.emit(Event{Kind: KindCell, Bench: bench, Protocol: proto})
	}
	if req.IsSweep() {
		return runSweep(ctx, opt, req, rc, sink)
	}
	return runMatrix(ctx, opt, rc, sink)
}

// runMatrix runs one matrix, served whole from the cache when possible:
// the sweep-point cache keys any resolved matrix configuration, so an
// identical matrix submission costs a disk read, bit-identically. Trace
// replays (ErrUncacheable) and corrupt entries fall back to simulating,
// the latter loudly; a failure to persist the finished matrix is a
// warning event, never the run's error.
func runMatrix(ctx context.Context, opt core.MatrixOptions, rc RunConfig, sink *eventSink) (*Outcome, error) {
	var key core.PointKey
	haveKey := false
	if rc.Cache != nil {
		k, err := core.PointKeyFor(opt)
		switch {
		case errors.Is(err, core.ErrUncacheable):
		case err != nil:
			return nil, err
		default:
			key, haveKey = k, true
			m, err := rc.Cache.Load(key)
			if err != nil {
				sink.emit(Event{Kind: KindMatrix, Status: StatusCacheCorrupt, Error: err.Error()})
			} else if m != nil {
				sink.emit(Event{Kind: KindMatrix, Status: StatusCached})
				return &Outcome{Matrix: m, Cached: true}, nil
			}
		}
	}
	m, err := core.RunMatrixContext(ctx, opt)
	if err != nil {
		return nil, err
	}
	if haveKey {
		if err := rc.Cache.Store(key, m); err != nil {
			sink.emit(Event{Kind: KindMatrix, Status: StatusStoreFailed, Error: err.Error()})
		}
	}
	return &Outcome{Matrix: m}, nil
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
				Status: pointStatus(ev.Status),
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
