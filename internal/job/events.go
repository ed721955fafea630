package job

// The unified run-progress event stream. The engine exposes two separate
// callbacks with two separate serialization guarantees — the per-cell
// core.MatrixOptions.Progress and the per-point core.SweepOptions.Progress
// — and Run merges both into ONE stream with ONE contract:
//
//   - Events are delivered strictly one at a time, never concurrently,
//     whatever the worker count. One mutex inside Run covers both
//     underlying callbacks, so cell events and point events cannot
//     interleave mid-delivery, and delivery order is the stream's total
//     order.
//   - Within one sweep point, events arrive in lifecycle order:
//     "cached" alone, or "cache-corrupt" then "simulating", or
//     "simulating" first; the point's cell events follow its "simulating";
//     "done" (or "store-failed" then "done" — see below) ends the point.
//     Events of DIFFERENT points interleave freely when the shared pool
//     runs points concurrently.
//   - Warning events are part of the stream, not a side channel:
//     Status "cache-corrupt" (an entry exists but cannot be trusted; the
//     point resimulates) and "store-failed" (the point completed but could
//     not persist; a later resume resimulates it). Renderers MUST print
//     these even when a quiet flag suppresses normal progress, as
//     trafficsim does under -q.
//
// TestRunUnifiedStreamTotalOrder and TestRunStoreFailedEvent pin the
// contract.

// Event kinds: which lifecycle an event belongs to.
const (
	// KindCell is a matrix-cell event: a worker claimed the
	// (Bench, Protocol) cell and its simulation is starting.
	KindCell = "cell"
	// KindPoint is a sweep-point event: Point/Total/Axis/Value name the
	// point, Status says what happened to it.
	KindPoint = "point"
)

// Point-event statuses: the engine's core.SweepPointStatus vocabulary
// verbatim, so a rendered event line matches what trafficsim prints.
const (
	// StatusCached: served from the content-addressed cache; nothing
	// simulates.
	StatusCached = "cached"
	// StatusCacheCorrupt: a cache entry exists but cannot be trusted
	// (Error says why); the configuration simulates fresh and a good
	// entry is rewritten on completion. Renderers print this even when
	// quiet.
	StatusCacheCorrupt = "cache-corrupt"
	// StatusSimulating: the first cell was claimed by a worker.
	StatusSimulating = "simulating"
	// StatusDone: the last cell finished and the result is assembled
	// (and persisted, when a cache is attached).
	StatusDone = "done"
	// StatusStoreFailed: the result is complete and in hand, but the
	// cache could not persist it (Error says why); only a later cached
	// rerun pays, by resimulating. Renderers print this even when quiet.
	StatusStoreFailed = "store-failed"
)

// Event is one entry of a run's unified progress stream, of one of the
// two kinds; unused fields are zero.
type Event struct {
	// Kind is KindCell or KindPoint.
	Kind string
	// Status qualifies point events (see the Status constants); empty for
	// cell events.
	Status string
	// Bench and Protocol name the cell for KindCell events.
	Bench    string
	Protocol string
	// Point (0-based) of Total locates a KindPoint event in sweep order.
	Point int
	Total int
	// Axis and Value name the swept knob and the point's x coordinate
	// ("hotspot.t", "4") for KindPoint events.
	Axis  string
	Value string
	// Error carries the cache failure for the cache-corrupt and
	// store-failed statuses.
	Error string
}
