package core

import (
	"fmt"

	"smtavf/internal/isa"
	"smtavf/internal/mem"
)

// FunctionalWarmup advances every thread's instruction stream by skip[t]
// correct-path instructions without simulating pipeline timing, then
// rebases measurement so the detailed run that follows reports only its
// own interval. It is how a shard reconstructs the machine state at its
// interval boundary: each skipped instruction is replayed through the
// long-lived structures it would have touched — instruction and data
// caches, TLBs, branch direction/target predictors, the return address
// stack, and the load miss predictors — on a compressed clock of one cycle
// per round-robin round. Pipeline occupancy (IQ/ROB/LSQ/registers) is not
// reconstructed; it refills within a few hundred cycles of detailed
// simulation and is the dominant term of the shard error bound documented
// in docs/sharding.md.
//
// window, when non-zero, bounds the warmed suffix per thread: at most that
// many instructions are replayed through the structures, and the skipped
// prefix before them is fast-forwarded through the generator (O(1) for
// trace.Seekable sources). A window shorter than the structures' reuse
// distance widens the error bound; see docs/sharding.md.
//
// FunctionalWarmup must be called on a fresh processor, before Run, and is
// incompatible with attached observers and Config.Warmup (the shard plan
// owns the warmup split).
func (p *Processor) FunctionalWarmup(skip []uint64, window uint64) error {
	if len(skip) != len(p.threads) {
		return fmt.Errorf("core: %d warmup skips for %d threads", len(skip), len(p.threads))
	}
	if p.now != 0 || p.totalCommitted != 0 {
		return fmt.Errorf("core: FunctionalWarmup must precede Run (cycle %d)", p.now)
	}
	if p.attached > 0 {
		return fmt.Errorf("core: FunctionalWarmup is incompatible with attached observers")
	}
	if p.cfg.Warmup > 0 {
		return fmt.Errorf("core: FunctionalWarmup cannot be combined with Config.Warmup")
	}
	any := false
	for _, n := range skip {
		if n > 0 {
			any = true
		}
	}
	if !any {
		return nil // shard 0: a cold start is exactly the monolithic prefix
	}

	rem := make([]uint64, len(p.threads))
	for i, t := range p.threads {
		start := uint64(0)
		if window > 0 && skip[i] > window {
			start = skip[i] - window
		}
		t.stream.Forward(start)
		rem[i] = skip[i] - start
	}
	for {
		active := false
		for i, t := range p.threads {
			if rem[i] == 0 {
				continue
			}
			active = true
			in := t.stream.Next()
			t.stream.Release(t.stream.Cursor())
			p.warmInstruction(t, in)
			rem[i]--
		}
		if !active {
			break
		}
		p.now++
	}
	for i, t := range p.threads {
		t.nextCommit = skip[i]
	}
	p.lastCommitCycle = p.now
	p.rebaseMeasurement()
	return nil
}

// warmInstruction replays one correct-path instruction through the
// long-lived structures, mirroring the accesses the detailed front end and
// issue stages would make (stages.go: fetchThread, predictCTI, issue,
// commit) minus timing, ports, and wrong-path effects.
func (p *Processor) warmInstruction(t *thread, in isa.Instruction) {
	pc := in.PC + t.offset
	line := pc &^ (uint64(p.cfg.IL1.LineSize) - 1)
	if line != t.lastFetchLine {
		p.itlb.Access(p.now, pc, t.id)
		p.il1.Access(p.now, pc, 4, false, t.id)
		t.lastFetchLine = line
	}
	switch {
	case in.Class.IsCTI():
		target := in.Target
		if in.Taken {
			target += t.offset
		}
		p.warmCTI(t, in.Class, pc, target, in.Taken)
	case in.Class == isa.Load:
		addr := in.Addr + t.offset
		p.dtlb.Access(p.now, addr, t.id)
		res := p.dl1.Access(p.now, addr, int(in.Size), false, t.id)
		p.l1MissPred.Update(pc, res.Kind != mem.Hit)
		p.l2MissPred.Update(pc, res.Kind == mem.L2Miss)
	case in.Class == isa.Store:
		addr := in.Addr + t.offset
		p.dtlb.Access(p.now, addr, t.id)
		p.dl1.Access(p.now, addr, int(in.Size), true, t.id)
	}
}

// warmCTI trains the front-end predictors with a correct-path control
// transfer, including the prediction-side table touches (BTB LRU, RAS
// pops) the detailed predictCTI makes.
func (p *Processor) warmCTI(t *thread, class isa.Class, pc, target uint64, taken bool) {
	btb := p.btbs[t.id]
	switch class {
	case isa.Branch:
		if p.gshares[t.id].Predict(0, pc) {
			btb.Lookup(pc) // LRU touch of the predicted target
		}
		p.gshares[t.id].Update(0, pc, taken)
	case isa.Call:
		btb.Lookup(pc)
		t.ras.Push(pc + 4)
	case isa.Return:
		t.ras.Pop()
	}
	if taken && class != isa.Return {
		btb.Insert(pc, target)
	}
}
