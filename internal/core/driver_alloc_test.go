package core

import (
	"testing"

	"repro/internal/memsys"
	"repro/internal/sim"
)

// stubProto completes every load a fixed latency after issue with the
// value the oracle expects (0: the stub program never stores), scheduling
// through AtArg and per-core records so it allocates nothing itself.
type stubProto struct {
	k     *sim.Kernel
	loads []stubLoad
}

type stubLoad struct {
	done func(uint32, memsys.Sample)
}

func stubLoadFire(arg any) {
	arg.(*stubLoad).done(0, memsys.Sample{Point: memsys.PointOnChip})
}

func (p *stubProto) Name() string { return "stub" }
func (p *stubProto) Load(core int, _ uint32, done func(uint32, memsys.Sample)) {
	p.loads[core].done = done
	p.k.AtArg(p.k.Now()+7, stubLoadFire, &p.loads[core])
}
func (p *stubProto) Store(int, uint32, uint32) bool { return true }
func (p *stubProto) SetStoreUnstall(int, func())    {}
func (p *stubProto) Drain(_ int, done func())       { done() }
func (p *stubProto) AtBarrier([]uint8)              {}

// stubProg is one phase of alternating compute and load ops per thread.
type stubProg struct{ threads, ops int }

func (p stubProg) Name() string               { return "stub" }
func (p stubProg) Threads() int               { return p.threads }
func (p stubProg) FootprintBytes() uint32     { return 4096 }
func (p stubProg) Regions() []memsys.Region   { return nil }
func (p stubProg) Phases() int                { return 1 }
func (p stubProg) WarmupPhases() int          { return 1 }
func (p stubProg) WrittenRegions(int) []uint8 { return nil }
func (p stubProg) EmitOps(_, t int, emit func(memsys.Op)) {
	for i := 0; i < p.ops; i++ {
		if i%2 == 0 {
			emit(memsys.Op{Kind: memsys.OpCompute, Cycles: uint16(1 + (i+t)%5)})
		} else {
			emit(memsys.Op{Kind: memsys.OpLoad, Addr: uint32(i%1024) * 4})
		}
	}
}

// TestRunnerStepZeroAlloc pins the allocation-free per-op path of the core
// driver: once a phase is under way and the kernel's event slice is warm,
// stepping cores through compute and load ops — scheduling the next step,
// issuing the load, and completing it against the oracle — must perform
// zero heap allocations.
func TestRunnerStepZeroAlloc(t *testing.T) {
	k := &sim.Kernel{}
	prog := stubProg{threads: 4, ops: 20000}
	env := &memsys.Env{K: k, Mem: make([]uint32, prog.FootprintBytes()/4)}
	r := NewRunner(env, &stubProto{k: k, loads: make([]stubLoad, prog.threads)}, prog)
	r.beginPhase(0)
	k.RunLimit(1000) // warm the event heap
	if allocs := testing.AllocsPerRun(100, func() { k.RunLimit(100) }); allocs != 0 {
		t.Fatalf("core step loop allocates %.1f times per 100 events, want 0", allocs)
	}
	for c := range r.cores {
		if cs := &r.cores[c]; !cs.active || cs.pc < 2000 {
			t.Fatalf("core %d at op %d (active %v): the loop did not run in steady state", c, cs.pc, cs.active)
		}
	}
	if r.oracleErr != nil {
		t.Fatal(r.oracleErr)
	}
}
