package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"

	"repro/internal/memsys"
	"repro/internal/sim"
)

// span is one timed interval of the traced pass. Spans are kept in memory
// and written out when the run ends. The calls into the protocol engine
// are too many to keep one by one, so each cell keeps one aggregate span
// per kind of call: Calls counts them, Total sums their durations, and
// Start and End cover the first and the last.
type span struct {
	Name   string `json:"name"`
	Cell   string `json:"cell,omitempty"`
	Parent int    `json:"parent"` // index of the parent span; -1 for the root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int64  `json:"calls,omitempty"`
	Total  int64  `json:"total_ns,omitempty"`
	Self   int64  `json:"self_ns"`
}

// dur is the time the span accounts for.
func (s *span) dur() int64 {
	if s.Calls > 0 {
		return s.Total
	}
	return s.End - s.Start
}

// tracer records the spans of one serial pass.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its index.
func (t *tracer) begin(name, cell string, parent int) int {
	t.spans = append(t.spans, span{Name: name, Cell: cell, Parent: parent, Start: t.now()})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = t.now() }

// finish computes every span's self time: its duration minus the part
// its children cover. Children of one span never overlap in a serial
// pass, so that part is the sum of their durations.
func (t *tracer) finish() {
	child := make([]int64, len(t.spans))
	for i := range t.spans {
		if p := t.spans[i].Parent; p >= 0 {
			child[p] += t.spans[i].dur()
		}
	}
	for i := range t.spans {
		if t.spans[i].Calls > 0 {
			continue // aggregates carry their self time from the call stack
		}
		t.spans[i].Self = t.spans[i].dur() - child[i]
	}
}

// selfTime sums the self time of every span with the given name.
func (t *tracer) selfTime(name string) time.Duration {
	var s int64
	for i := range t.spans {
		if t.spans[i].Name == name {
			s += t.spans[i].Self
		}
	}
	return time.Duration(s)
}

// write stores the spans as JSON.
func (t *tracer) write(path string) error {
	buf, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// callAgg accumulates one kind of protocol call within a cell.
type callAgg struct {
	name        string
	parent      int // the cell's sim.run span
	calls       int64
	start, end  int64
	total, self int64
}

// frame is one protocol call in progress.
type frame struct {
	start int64
	child int64
}

// tracedProto wraps a protocol engine to time the driver's calls into it
// and count what they do. A protocol may complete a load inside the Load
// call, and the driver then issues the next operation from that
// callback, so calls nest; the frame stack keeps each call's self time
// apart from the calls it contains.
type tracedProto struct {
	memsys.Protocol
	k  *sim.Kernel
	tr *tracer

	issue, barrier callAgg
	stack          []frame

	loads, stores, rejected uint64
	lat                     *latHist
}

func newTracedProto(p memsys.Protocol, k *sim.Kernel, tr *tracer, lat *latHist) *tracedProto {
	return &tracedProto{
		Protocol: p, k: k, tr: tr, lat: lat,
		issue:   callAgg{name: "proto.issue"},
		barrier: callAgg{name: "proto.barrier"},
	}
}

func (p *tracedProto) enter() { p.stack = append(p.stack, frame{start: p.tr.now()}) }

func (p *tracedProto) exit(a *callAgg) {
	f := p.stack[len(p.stack)-1]
	p.stack = p.stack[:len(p.stack)-1]
	end := p.tr.now()
	d := end - f.start
	if a.calls == 0 {
		a.start = f.start
	}
	a.calls++
	a.end = end
	a.total += d
	a.self += d - f.child
	if len(p.stack) > 0 {
		p.stack[len(p.stack)-1].child += d
	}
}

// Load implements memsys.Protocol and records the load's latency in
// simulated cycles.
func (p *tracedProto) Load(core int, addr uint32, done func(uint32, memsys.Sample)) {
	p.loads++
	issued := p.k.Now()
	p.enter()
	p.Protocol.Load(core, addr, func(v uint32, s memsys.Sample) {
		p.lat.add(p.k.Now() - issued)
		done(v, s)
	})
	p.exit(&p.issue)
}

// Store implements memsys.Protocol; a store the full store buffer
// rejects counts as a retry.
func (p *tracedProto) Store(core int, addr uint32, val uint32) bool {
	p.enter()
	ok := p.Protocol.Store(core, addr, val)
	p.exit(&p.issue)
	if ok {
		p.stores++
	} else {
		p.rejected++
	}
	return ok
}

// Drain implements memsys.Protocol.
func (p *tracedProto) Drain(core int, done func()) {
	p.enter()
	p.Protocol.Drain(core, done)
	p.exit(&p.issue)
}

// AtBarrier implements memsys.Protocol.
func (p *tracedProto) AtBarrier(written []uint8) {
	p.enter()
	p.Protocol.AtBarrier(written)
	p.exit(&p.barrier)
}

// flush appends the cell's aggregate spans to the tracer.
func (p *tracedProto) flush(cell string) {
	for _, a := range []*callAgg{&p.issue, &p.barrier} {
		if a.calls == 0 {
			continue
		}
		p.tr.spans = append(p.tr.spans, span{
			Name: a.name, Cell: cell, Parent: a.parent,
			Start: a.start, End: a.end, Calls: a.calls, Total: a.total, Self: a.self,
		})
	}
}

// latHist is an exact histogram of load latencies in cycles.
type latHist struct {
	counts map[int64]uint64
	n      uint64
}

func newLatHist() *latHist { return &latHist{counts: map[int64]uint64{}} }

func (h *latHist) add(v int64) {
	h.counts[v]++
	h.n++
}

// quantile returns the smallest latency at or below which a q share of
// the loads completed.
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	keys := make([]int64, 0, len(h.counts))
	for k := range h.counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	rank := uint64(q * float64(h.n))
	var seen uint64
	for _, k := range keys {
		seen += h.counts[k]
		if seen > rank {
			return float64(k)
		}
	}
	return float64(keys[len(keys)-1])
}
