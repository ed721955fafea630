// Package core assembles the full simulated system and drives it: in-order
// cores executing workload op streams against a coherence protocol over
// the mesh/DRAM substrate, with barrier synchronization, the Figure 5.2
// execution-time breakdown, and a functional oracle that checks every load
// returns the value of its unique last writer (the data-race-free
// semantics both protocols must preserve).
//
// It also hosts the protocol registry (the nine configurations of §3.2 and
// §3.3) and the experiment harness that regenerates the paper's figures.
package core

import (
	"fmt"

	"repro/internal/memsys"
)

// Runner executes one program under one protocol on one Env.
type Runner struct {
	env   *memsys.Env
	proto memsys.Protocol
	prog  memsys.Program

	Times []memsys.TimeBreakdown // per-core Figure 5.2 accounting

	oracle     []uint32
	valCounter uint32
	oracleErr  error

	// ViolationAddr is the address of the first oracle violation, if any
	// (diagnostics). OnViolation, when set, fires at violation time so
	// tests can snapshot protocol state before it changes.
	ViolationAddr uint32
	OnViolation   func(addr uint32)

	phase        int
	arrived      int
	measureStart int64
	execCycles   int64
	finished     bool

	cores []coreState
}

type coreState struct {
	ops          []memsys.Op
	pc           int
	barrierEnter int64
	stallStart   int64
	storeStalled bool
	storeAddr    uint32
	storeVal     uint32
	active       bool

	// The core's one outstanding load: its address, issue cycle and the
	// value the oracle expects.
	loadAddr   uint32
	loadT0     int64
	loadExpect uint32

	// Callbacks bound once per core, so stepping and loading build no
	// closure per operation.
	step     func()
	loadDone func(val uint32, s memsys.Sample)
}

// NewRunner wires a program and protocol onto an environment. The
// protocol must already be registered on env's mesh.
func NewRunner(env *memsys.Env, proto memsys.Protocol, prog memsys.Program) *Runner {
	r := &Runner{
		env:    env,
		proto:  proto,
		prog:   prog,
		Times:  make([]memsys.TimeBreakdown, prog.Threads()),
		oracle: make([]uint32, len(env.Mem)),
		cores:  make([]coreState, prog.Threads()),
	}
	for c := range r.cores {
		cs := &r.cores[c]
		cs.step = func() { r.step(c) }
		cs.loadDone = func(val uint32, s memsys.Sample) { r.loadDone(c, val, s) }
		proto.SetStoreUnstall(c, func() { r.retryStore(c) })
	}
	return r
}

// MaxSteps bounds a Run as a livelock watchdog (0 = default bound).
var MaxSteps uint64 = 2_000_000_000

// Run executes every phase to completion. It returns an error if the
// simulation deadlocks, livelocks, or the functional oracle detects a
// wrong value.
func (r *Runner) Run() error {
	r.beginPhase(0)
	for !r.finished {
		if r.env.K.RunLimit(1_000_000) == 0 {
			break // queue drained
		}
		if r.env.K.Steps() > MaxSteps {
			return fmt.Errorf("core: livelock in %s/%s at phase %d (cycle %d, %d events, %d clamped)",
				r.proto.Name(), r.prog.Name(), r.phase, r.env.K.Now(), r.env.K.Steps(), r.env.K.Clamped())
		}
	}
	if !r.finished {
		return fmt.Errorf("core: deadlock in %s/%s at phase %d (cycle %d, %d clamped)",
			r.proto.Name(), r.prog.Name(), r.phase, r.env.K.Now(), r.env.K.Clamped())
	}
	r.env.K.Run() // drain trailing protocol events (acks, writebacks)
	return r.oracleErr
}

// ExecCycles returns the measured-region execution time.
func (r *Runner) ExecCycles() int64 { return r.execCycles }

func (r *Runner) beginPhase(p int) {
	r.phase = p
	r.arrived = 0
	if p == r.prog.WarmupPhases() {
		r.env.StartMeasurement()
		r.measureStart = r.env.K.Now()
		for i := range r.Times {
			r.Times[i] = memsys.TimeBreakdown{}
		}
	}
	for c := 0; c < r.prog.Threads(); c++ {
		cs := &r.cores[c]
		cs.ops = cs.ops[:0]
		r.prog.EmitOps(p, c, func(o memsys.Op) { cs.ops = append(cs.ops, o) })
		cs.pc = 0
		cs.active = true
		r.env.K.After(0, cs.step)
	}
}

// step runs ops for a core until it blocks (load, compute, store-buffer
// full) or reaches the phase barrier.
func (r *Runner) step(c int) {
	cs := &r.cores[c]
	for {
		if cs.pc >= len(cs.ops) {
			r.enterBarrier(c)
			return
		}
		op := cs.ops[cs.pc]
		cs.pc++
		switch op.Kind {
		case memsys.OpCompute:
			r.Times[c].Busy += int64(op.Cycles)
			r.env.K.After(int64(op.Cycles), cs.step)
			return
		case memsys.OpLoad:
			cs.loadAddr, cs.loadT0, cs.loadExpect = op.Addr, r.env.K.Now(), r.oracle[op.Addr>>2]
			r.proto.Load(c, op.Addr, cs.loadDone)
			return
		case memsys.OpStore:
			r.valCounter++
			val := r.valCounter
			r.oracle[op.Addr>>2] = val
			if !r.proto.Store(c, op.Addr, val) {
				cs.storeStalled = true
				cs.storeAddr, cs.storeVal = op.Addr, val
				cs.stallStart = r.env.K.Now()
				return
			}
		}
	}
}

// loadDone completes core c's outstanding load: it checks the value
// against the oracle, charges the stall, and resumes the core.
func (r *Runner) loadDone(c int, val uint32, s memsys.Sample) {
	cs := &r.cores[c]
	if val != cs.loadExpect && r.oracleErr == nil {
		r.oracleErr = fmt.Errorf(
			"core: oracle violation %s/%s: core %d load %#x = %d, want %d (phase %d, cycle %d)",
			r.proto.Name(), r.prog.Name(), c, cs.loadAddr, val, cs.loadExpect, r.phase, r.env.K.Now())
		r.ViolationAddr = cs.loadAddr
		if r.OnViolation != nil {
			r.OnViolation(cs.loadAddr)
		}
	}
	stall := r.env.K.Now() - cs.loadT0
	if s.Point == memsys.PointL1 {
		r.Times[c].Busy += stall // pipelined L1 hit
	} else {
		r.Times[c].AddStall(stall, s)
	}
	r.step(c)
}

// retryStore resumes a core blocked on a full store buffer.
func (r *Runner) retryStore(c int) {
	cs := &r.cores[c]
	if !cs.storeStalled {
		return
	}
	if !r.proto.Store(c, cs.storeAddr, cs.storeVal) {
		return // still full; the next unstall will retry
	}
	r.Times[c].OnChip += r.env.K.Now() - cs.stallStart
	cs.storeStalled = false
	r.step(c)
}

func (r *Runner) enterBarrier(c int) {
	cs := &r.cores[c]
	cs.active = false
	cs.barrierEnter = r.env.K.Now()
	r.proto.Drain(c, func() { r.coreArrived(c) })
}

func (r *Runner) coreArrived(c int) {
	r.arrived++
	if r.arrived < r.prog.Threads() {
		return
	}
	// Barrier release: everyone pays sync time up to now.
	now := r.env.K.Now()
	for i := range r.cores {
		r.Times[i].Sync += now - r.cores[i].barrierEnter
	}
	r.proto.AtBarrier(r.prog.WrittenRegions(r.phase))
	next := r.phase + 1
	if next >= r.prog.Phases() {
		r.finished = true
		r.execCycles = now - r.measureStart
		r.env.Prof.Finish()
		return
	}
	r.beginPhase(next)
}
