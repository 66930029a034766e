package avf

// Sink observes positioned residency intervals as they are classified.
// The accumulators in Tracker only need (bits × cycles) totals, but
// consumers like statistical fault injection (internal/inject) need to
// know *when* state was resident; call sites that know interval positions
// use AddInterval, which both accumulates and forwards to every sink.
type Sink interface {
	// Interval reports that 'bits' bits of structure s, owned by thread
	// tid, were resident from cycle start (inclusive) to end (exclusive),
	// and whether a particle strike in that window would have corrupted
	// the program (ace).
	Interval(s Struct, tid int, bits, start, end uint64, ace bool)
}

// AddInterval records a residency interval [start, end) and forwards it to
// every sink. Intervals are clipped against the rebase point (see
// Rebase), so warmup-era residency never pollutes measured statistics.
func (t *Tracker) AddInterval(s Struct, tid int, bits, start, end uint64, ace bool) {
	if start < t.rebase {
		start = t.rebase
	}
	if end <= start {
		return
	}
	t.Add(s, tid, bits, end-start, ace)
	for _, k := range t.Sinks {
		k.Interval(s, tid, bits, start, end, ace)
	}
}

// RebaseObserver is the optional rebase half of an observer: a Sink that
// implements it is told when the tracker rebases, so interval consumers
// (fault-injection campaigns, the CPI-stack observer) can drop their
// warmup-era state instead of silently mixing it with measured intervals.
// core.Processor tells every other attached observer implementing it at
// the same point. Observers that never see a rebase (no warmup
// configured) need not implement it.
type RebaseObserver interface {
	// Rebase reports that accumulation restarted at cycle: intervals
	// observed before it belong to warmup and must not contribute to
	// measured estimates.
	Rebase(cycle uint64)
}

// Rebase zeroes the accumulators and clips all future intervals at cycle:
// the simulator calls it at the end of a warmup period, so that AVFs cover
// only the measurement window. Callers must thereafter compute AVFs over
// cycles-since-rebase. Every sink that implements RebaseObserver is
// notified after the accumulators reset.
func (t *Tracker) Rebase(cycle uint64) {
	t.drain() // pre-rebase spans must be zeroed with everything else
	t.rebase = cycle
	for s := 0; s < NumStructs; s++ {
		for tid := range t.ace[s] {
			t.ace[s][tid] = 0
			t.unace[s][tid] = 0
		}
	}
	for _, k := range t.Sinks {
		if o, ok := k.(RebaseObserver); ok {
			o.Rebase(cycle)
		}
	}
}
