package core

import (
	"fmt"

	"smtavf/internal/avf"
	"smtavf/internal/cpistack"
	"smtavf/internal/pipeline"
	"smtavf/internal/pipetrace"
	"smtavf/internal/propagation"
	"smtavf/internal/telemetry"
)

// RetireObserver is fed every uop leaving the machine, at the three sites
// that classify it for the AVF tracker — commit, squash, and end-of-run
// accounting — so it sees exactly the population the tracker accounted.
// u is a scratch view the processor overwrites as soon as Record returns:
// everything kept must be copied out (docs/performance.md).
type RetireObserver interface {
	Record(u *pipeline.Uop, retire uint64, squashed bool)
}

// WindowObserver receives a cycle-windowed telemetry series: one window
// every WindowCycles cycles from the start of Run, a partial window at the
// end of warmup, and a final window after end-of-run accounting.
type WindowObserver interface {
	WindowCycles() uint64
	Record(w telemetry.Window)
}

// CycleObserver is told after every simulated cycle which CPI-stack
// component each thread's cycle was attributed to (see cpiAccount).
type CycleObserver interface {
	Tick(now uint64, comps []cpistack.Component)
}

// Attach connects observers to the processor; call it before Run. Each
// observer is sorted once, by the hooks it implements, into plain lists:
//
//   - RetireObserver: fed at every classification site;
//   - avf.Sink: joins the tracker's sinks, which receive every positioned
//     interval and, if they implement avf.RebaseObserver, every rebase;
//   - WindowObserver: gets its own telemetry window series;
//   - CycleObserver: fed by the per-cycle CPI-stack attribution pass;
//   - avf.RebaseObserver that is not a sink: rebased by the processor at
//     the end of warmup.
//
// One observer may implement several hooks: the CPI-stack observer is a
// retire observer, a sink and a cycle observer at once. The lists are
// independent, so attach order does not matter. The pipetrace recorder,
// the propagation tracer and the CPI-stack observer are also told the
// machine geometry they weigh residency with. Attach panics on a value
// that implements no hook.
func (p *Processor) Attach(obs ...any) {
	for _, o := range obs {
		hooked := false
		if r, ok := o.(RetireObserver); ok {
			p.retire = append(p.retire, r)
			hooked = true
		}
		if w, ok := o.(WindowObserver); ok {
			p.samplers = append(p.samplers, p.windowSampler(w))
			hooked = true
		}
		if c, ok := o.(CycleObserver); ok {
			p.cycleObs = append(p.cycleObs, c)
			hooked = true
		}
		if s, ok := o.(avf.Sink); ok {
			p.trk.Sinks = append(p.trk.Sinks, s)
			hooked = true
		} else if r, ok := o.(avf.RebaseObserver); ok {
			p.rebasers = append(p.rebasers, r)
			hooked = true
		}
		if !hooked {
			panic(fmt.Sprintf("core: Attach: %T implements no observer hook", o))
		}
		p.configure(o)
		p.attached++
	}
	if len(p.cycleObs) > 0 && p.cpiComps == nil {
		p.cpiComps = make([]cpistack.Component, p.cfg.Threads)
		p.cpiPrev = make([]cpiPrev, p.cfg.Threads)
	}
}

// configure tells an observer the machine geometry it needs: the per-entry
// bit widths all three weigh residency with, the DL1 shape and thread
// count the propagation tracer maps strikes onto, and the capacities and
// accounting origin of the CPI-stack occupancy windows.
func (p *Processor) configure(o any) {
	switch o := o.(type) {
	case *pipetrace.Recorder:
		o.SetBits(p.cfg.Bits)
	case *propagation.Tracer:
		o.Configure(p.cfg.Bits, p.cfg.DL1, p.cfg.Threads)
	case *cpistack.Observer:
		o.Configure(p.cfg.Bits, StructBits(p.cfg), p.cfg.Threads, p.now)
	}
}

// recordObservers materializes slot u into the observer-facing scratch
// view and reports it to every retire observer at a classification site.
// With none attached the pool slot is never materialized — the side-table
// rule that keeps the bare hot loop free of struct traffic.
func (p *Processor) recordObservers(u pipeline.UID, squashed bool) {
	if len(p.retire) == 0 {
		return
	}
	p.pool.Materialize(u, &p.obsUop)
	for _, o := range p.retire {
		o.Record(&p.obsUop, p.now, squashed)
	}
}
