package avf

import "testing"

// recSink records every interval and rebase it observes.
type recSink struct {
	intervals int
	bitCycles uint64
	rebases   []uint64
}

func (r *recSink) Interval(s Struct, tid int, bits, start, end uint64, ace bool) {
	r.intervals++
	r.bitCycles += bits * (end - start)
}

func (r *recSink) Rebase(cycle uint64) { r.rebases = append(r.rebases, cycle) }

// rebaseBlindSink implements only Sink, not RebaseObserver.
type rebaseBlindSink struct{ intervals int }

func (p *rebaseBlindSink) Interval(Struct, int, uint64, uint64, uint64, bool) { p.intervals++ }

// TestSinksFanOut pins the fan-out contract the observers rely on: every
// sink in Tracker.Sinks receives every interval and every rebase, clipped
// identically, and a sink without RebaseObserver is skipped rather than
// crashed into.
func TestSinksFanOut(t *testing.T) {
	var bits [NumStructs]uint64
	bits[IQ] = 100
	trk := NewTracker(1, bits)

	first, second := &recSink{}, &recSink{}
	trk.Sinks = append(trk.Sinks, first)
	trk.AddInterval(IQ, 0, 10, 0, 5, true)
	trk.Sinks = append(trk.Sinks, second)
	trk.AddInterval(IQ, 0, 10, 5, 10, false)
	if first.intervals != 2 || first.bitCycles != 100 {
		t.Fatalf("first sink saw %d intervals / %d bit-cycles", first.intervals, first.bitCycles)
	}
	if second.intervals != 1 || second.bitCycles != 50 {
		t.Fatalf("second sink saw %d intervals / %d bit-cycles", second.intervals, second.bitCycles)
	}

	// Rebase reaches both, and the tracker clips later intervals
	// identically for both.
	trk.Rebase(20)
	for _, s := range []*recSink{first, second} {
		if len(s.rebases) != 1 || s.rebases[0] != 20 {
			t.Fatalf("rebase notification missing: %v", s.rebases)
		}
	}
	trk.AddInterval(IQ, 0, 10, 15, 25, true) // clipped to [20, 25)
	if first.bitCycles != 100+50 || second.bitCycles != 50+50 {
		t.Fatalf("clipped interval delivery: %d / %d", first.bitCycles, second.bitCycles)
	}

	// A rebase-blind sink joins; rebasing must not panic and the others
	// still hear it.
	blind := &rebaseBlindSink{}
	trk.Sinks = append(trk.Sinks, blind)
	trk.Rebase(30)
	if len(first.rebases) != 2 || len(second.rebases) != 2 {
		t.Fatalf("a rebase was dropped: %v / %v", first.rebases, second.rebases)
	}
	trk.AddInterval(IQ, 0, 1, 30, 31, true)
	if blind.intervals != 1 || first.intervals != 4 || second.intervals != 3 {
		t.Fatalf("fan-out delivery: %d / %d / %d", first.intervals, second.intervals, blind.intervals)
	}
}
