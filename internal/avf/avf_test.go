package avf

import (
	"math"
	"testing"
	"testing/quick"
)

func bits(iq uint64) [NumStructs]uint64 {
	var b [NumStructs]uint64
	for i := range b {
		b[i] = 1000
	}
	b[IQ] = iq
	return b
}

func TestAVFBasic(t *testing.T) {
	trk := NewTracker(2, bits(1000))
	// 100 bits resident for 50 of 100 cycles, ACE: AVF = 5000/100000 = 5%.
	trk.Add(IQ, 0, 100, 50, true)
	if got := trk.AVF(IQ, 100); math.Abs(got-0.05) > 1e-12 {
		t.Fatalf("AVF = %v, want 0.05", got)
	}
}

func TestUnACEDoesNotCountTowardAVF(t *testing.T) {
	trk := NewTracker(1, bits(1000))
	trk.Add(IQ, 0, 100, 50, false)
	if got := trk.AVF(IQ, 100); got != 0 {
		t.Fatalf("un-ACE residency leaked into AVF: %v", got)
	}
	if got := trk.Occupancy(IQ, 100); math.Abs(got-0.05) > 1e-12 {
		t.Fatalf("occupancy = %v, want 0.05", got)
	}
}

func TestThreadAVFPartitionsTotal(t *testing.T) {
	f := func(adds []struct {
		TID    uint8
		Bits   uint16
		Cycles uint16
		ACE    bool
	}) bool {
		trk := NewTracker(4, bits(1<<20))
		for _, a := range adds {
			trk.Add(IQ, int(a.TID)%4, uint64(a.Bits), uint64(a.Cycles), a.ACE)
		}
		total := trk.AVF(IQ, 1000)
		sum := 0.0
		for tid := 0; tid < 4; tid++ {
			sum += trk.ThreadAVF(IQ, tid, 1000)
		}
		return math.Abs(total-sum) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZeroCyclesOrBitsIgnored(t *testing.T) {
	trk := NewTracker(1, bits(1000))
	trk.Add(IQ, 0, 0, 100, true)
	trk.Add(IQ, 0, 100, 0, true)
	if trk.ACEBitCycles(IQ) != 0 {
		t.Fatal("zero-sized residency recorded")
	}
}

func TestAVFZeroDenominator(t *testing.T) {
	trk := NewTracker(1, [NumStructs]uint64{})
	trk.Add(IQ, 0, 10, 10, true)
	if trk.AVF(IQ, 0) != 0 || trk.AVF(IQ, 100) != 0 {
		t.Fatal("zero denominator must yield AVF 0")
	}
}

func TestSnapshot(t *testing.T) {
	trk := NewTracker(2, bits(1000))
	trk.Add(IQ, 0, 100, 30, true)
	trk.Add(IQ, 1, 100, 20, true)
	trk.Add(IQ, 1, 100, 50, false)
	r := trk.Snapshot(100)
	if r.Cycles != 100 || r.Threads != 2 {
		t.Fatal("snapshot metadata wrong")
	}
	if math.Abs(r.AVF(IQ)-0.05) > 1e-12 {
		t.Fatalf("snapshot AVF = %v", r.AVF(IQ))
	}
	if math.Abs(r.ThreadAVF(IQ, 0)-0.03) > 1e-12 {
		t.Fatalf("thread 0 AVF = %v", r.ThreadAVF(IQ, 0))
	}
	if math.Abs(r.ThreadAVF(IQ, 1)-0.02) > 1e-12 {
		t.Fatalf("thread 1 AVF = %v", r.ThreadAVF(IQ, 1))
	}
	if math.Abs(r.Occ[IQ]-0.10) > 1e-12 {
		t.Fatalf("occupancy = %v", r.Occ[IQ])
	}
}

func TestStructNames(t *testing.T) {
	want := map[Struct]string{
		IQ: "IQ", ROB: "ROB", FU: "FU", Reg: "Reg",
		LSQData: "LSQ_data", LSQTag: "LSQ_tag",
		DL1Data: "DL1_data", DL1Tag: "DL1_tag",
		DTLB: "DTLB", ITLB: "ITLB",
	}
	for s, n := range want {
		if s.String() != n {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), n)
		}
	}
	if Struct(99).String() != "struct(99)" {
		t.Error("unknown struct name wrong")
	}
}

func TestStructsOrderComplete(t *testing.T) {
	ss := Structs()
	if len(ss) != NumStructs {
		t.Fatalf("Structs() returned %d of %d", len(ss), NumStructs)
	}
	seen := map[Struct]bool{}
	for _, s := range ss {
		if seen[s] {
			t.Fatalf("duplicate %v", s)
		}
		seen[s] = true
	}
}

func TestOccupancyBoundsAVF(t *testing.T) {
	trk := NewTracker(1, bits(1000))
	trk.Add(IQ, 0, 100, 30, true)
	trk.Add(IQ, 0, 100, 20, false)
	if trk.AVF(IQ, 100) > trk.Occupancy(IQ, 100) {
		t.Fatal("AVF exceeds occupancy")
	}
}

// rebaseRecorder is a Sink that also observes rebases.
type rebaseRecorder struct {
	intervals int
	rebases   []uint64
}

func (r *rebaseRecorder) Interval(s Struct, tid int, bits, start, end uint64, ace bool) {
	r.intervals++
}
func (r *rebaseRecorder) Rebase(cycle uint64) { r.rebases = append(r.rebases, cycle) }

func TestRebaseNotifiesObserverSink(t *testing.T) {
	trk := NewTracker(1, bits(64))
	rec := &rebaseRecorder{}
	trk.Sinks = append(trk.Sinks, rec)
	trk.AddInterval(IQ, 0, 4, 0, 10, true)
	trk.Rebase(10)
	trk.AddInterval(IQ, 0, 4, 10, 20, true)
	if rec.intervals != 2 {
		t.Fatalf("sink saw %d intervals, want 2", rec.intervals)
	}
	if len(rec.rebases) != 1 || rec.rebases[0] != 10 {
		t.Fatalf("sink saw rebases %v, want [10]", rec.rebases)
	}
	// Accumulators only hold the post-rebase interval.
	if got := trk.ACEBitCycles(IQ); got != 4*10 {
		t.Fatalf("post-rebase ACE bit-cycles = %d, want 40", got)
	}
}

type plainSink struct{ intervals int }

func (p *plainSink) Interval(s Struct, tid int, bits, start, end uint64, ace bool) {
	p.intervals++
}

func TestRebaseToleratesPlainSink(t *testing.T) {
	trk := NewTracker(1, bits(64))
	trk.Sinks = append(trk.Sinks, &plainSink{})
	trk.AddInterval(IQ, 0, 4, 0, 10, true)
	trk.Rebase(10) // must not panic on a Sink without Rebase
	if got := trk.ACEBitCycles(IQ); got != 0 {
		t.Fatalf("accumulators not zeroed: %d", got)
	}
}

func TestOccupiedBitCycles(t *testing.T) {
	trk := NewTracker(2, bits(64))
	trk.Add(IQ, 0, 4, 10, true)
	trk.Add(IQ, 1, 4, 5, false)
	if got := trk.OccupiedBitCycles(IQ); got != 4*10+4*5 {
		t.Fatalf("occupied bit-cycles = %d, want 60", got)
	}
	if got := trk.ACEBitCycles(IQ); got != 4*10 {
		t.Fatalf("ACE bit-cycles = %d, want 40", got)
	}
}
