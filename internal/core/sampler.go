package core

import (
	"smtavf/internal/avf"
	"smtavf/internal/telemetry"
)

// snapshot is a reading of every windowed quantity. A window is the diff
// of two snapshots, so the hot path keeps no per-window accumulators.
type snapshot struct {
	cycle     uint64
	committed uint64
	perThread []uint64
	ace       [avf.NumStructs]uint64
	occ       [avf.NumStructs]uint64
	fetched   uint64
	wrongPath uint64
	mispred   uint64
	flushes   uint64
	squashed  uint64
	stalls    uint64
}

func (p *Processor) snapshot() snapshot {
	s := snapshot{
		cycle:     p.now,
		committed: p.totalCommitted,
		perThread: make([]uint64, len(p.threads)),
	}
	for i, t := range p.threads {
		s.perThread[i] = t.committed
		s.fetched += t.fetched
		s.wrongPath += t.wrongPathFetch
		s.mispred += t.mispredicts
		s.flushes += t.flushes
		s.squashed += t.squashedUops
		s.stalls += t.renameStalls + t.iqFullStalls + t.robFullStalls + t.lsqFullStalls
	}
	for st := avf.Struct(0); st < avf.NumStructs; st++ {
		s.ace[st] = p.trk.ACEBitCycles(st)
		s.occ[st] = p.trk.OccupiedBitCycles(st)
	}
	return s
}

// perBitCycle divides a bit-cycle delta of structure s by the structure's
// capacity over d cycles: the window's AVF for ACE bit-cycles, its
// occupancy for occupied ones. ok is false for a zero denominator.
func (p *Processor) perBitCycle(s avf.Struct, delta, d uint64) (v float64, ok bool) {
	den := float64(p.trk.Bits(s)) * float64(d)
	if den <= 0 {
		return 0, false
	}
	return float64(delta) / den, true
}

// sampler is one cycle-windowed series over the processor's snapshots:
// Config.PhaseInterval phases, or one WindowObserver's telemetry windows.
// Every `every` cycles it closes a window [base, now) and hands it to emit.
type sampler struct {
	every    uint64
	measured bool // sample the measurement window only, not warmup
	armed    bool
	next     uint64 // cycle the open window closes at
	base     snapshot
	index    int
	emit     func(s *sampler, cur *snapshot, final bool)
}

// arm opens a window on every sampler at the current cycle: at the start
// of Run (skipping measurement-only samplers while warmup is pending) and
// again after the warmup rebase, once the tracker has been zeroed.
func (p *Processor) arm(warmup bool) {
	var cur snapshot
	for _, s := range p.samplers {
		if warmup && s.measured {
			continue
		}
		if cur.perThread == nil {
			cur = p.snapshot()
		}
		s.armed = true
		s.base = cur
		s.next = p.now + s.every
	}
	p.schedule()
}

// roll closes the open window of every armed sampler that is due, or of
// every armed sampler when all is set: at the end of warmup, so no window
// mixes warmup-era and measured intervals, and — with final set — after
// end-of-run accounting, so the last window's cumulative figures match
// the end-of-run report. A non-final window of zero cycles is skipped.
func (p *Processor) roll(all, final bool) {
	var cur snapshot
	for _, s := range p.samplers {
		if !s.armed || !all && p.now < s.next {
			continue
		}
		if p.now == s.base.cycle && !final {
			continue
		}
		if cur.perThread == nil {
			cur = p.snapshot()
		}
		s.emit(s, &cur, final)
		s.index++
		s.base = cur
		s.next = p.now + s.every
	}
	p.schedule()
}

// schedule sets the one cycle Run checks: the earliest close of any armed
// sampler's window.
func (p *Processor) schedule() {
	p.nextSample = ^uint64(0)
	for _, s := range p.samplers {
		if s.armed && s.next < p.nextSample {
			p.nextSample = s.next
		}
	}
}

// phaseSampler records Config.PhaseInterval phases: the IPC and
// per-structure AVF of each interval of the measurement window.
func (p *Processor) phaseSampler() *sampler {
	return &sampler{every: p.cfg.PhaseInterval, measured: true, emit: func(s *sampler, cur *snapshot, _ bool) {
		d := cur.cycle - s.base.cycle
		if d == 0 {
			return
		}
		ph := Phase{
			Cycle:     p.now - p.measureStart, // relative to the measurement window
			Committed: cur.committed - s.base.committed,
		}
		ph.IPC = float64(ph.Committed) / float64(d)
		for st := avf.Struct(0); st < avf.NumStructs; st++ {
			ph.AVF[st], _ = p.perBitCycle(st, cur.ace[st]-s.base.ace[st], d)
		}
		p.phases = append(p.phases, ph)
	}}
}

// windowSampler feeds o one telemetry.Window per window. A telemetry
// collector also serves live registry metrics between windows; each
// window advances them by its own counts.
func (p *Processor) windowSampler(o WindowObserver) *sampler {
	col, _ := o.(*telemetry.Collector)
	reg := col.Registry() // nil for other observers; its handles are no-ops
	cycle := reg.Gauge("sim.cycle", "")
	committed := reg.Counter("sim.committed", "")
	flushes := reg.Counter("sim.flushes", "")
	squashed := reg.Counter("sim.squashed_uops", "")
	return &sampler{every: o.WindowCycles(), emit: func(s *sampler, cur *snapshot, final bool) {
		w := p.window(s, cur, final)
		o.Record(w)
		cycle.SetUint(p.now)
		committed.Add(w.Committed)
		flushes.Add(w.Flushes)
		squashed.Add(w.SquashedUops)
	}}
}

// window builds the telemetry window [s.base, cur). The final window may
// cover zero cycles when the run ended exactly on a window boundary; it is
// still emitted so the last cumulative AVF always matches the report.
func (p *Processor) window(s *sampler, cur *snapshot, final bool) telemetry.Window {
	base := &s.base
	d := cur.cycle - base.cycle
	w := telemetry.Window{
		Index:          s.index,
		Warmup:         p.cfg.Warmup > 0 && p.warmPerThread == nil,
		Final:          final,
		StartCycle:     base.cycle,
		EndCycle:       cur.cycle,
		Committed:      cur.committed - base.committed,
		AVF:            make(map[string]float64, avf.NumStructs),
		CumAVF:         make(map[string]float64, avf.NumStructs),
		Occupancy:      make(map[string]float64, avf.NumStructs),
		Fetched:        cur.fetched - base.fetched,
		WrongPathFetch: cur.wrongPath - base.wrongPath,
		Mispredicts:    cur.mispred - base.mispred,
		Flushes:        cur.flushes - base.flushes,
		SquashedUops:   cur.squashed - base.squashed,
		DispatchStalls: cur.stalls - base.stalls,
	}
	if d > 0 {
		w.IPC = float64(w.Committed) / float64(d)
		w.ThreadIPC = make([]float64, len(p.threads))
		for i := range p.threads {
			w.ThreadIPC[i] = float64(cur.perThread[i]-base.perThread[i]) / float64(d)
		}
	}
	meas := p.now - p.measureStart
	for st := avf.Struct(0); st < avf.NumStructs; st++ {
		name := st.String()
		if v, ok := p.perBitCycle(st, cur.ace[st]-base.ace[st], d); ok {
			w.AVF[name] = v
			w.Occupancy[name], _ = p.perBitCycle(st, cur.occ[st]-base.occ[st], d)
		}
		// Same computation as the end-of-run avf.Report, so the final
		// window agrees with it bit for bit.
		w.CumAVF[name] = p.trk.AVF(st, meas)
	}
	return w
}
