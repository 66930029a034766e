package core

import (
	"testing"

	"smtavf/internal/avf"
	"smtavf/internal/pipetrace"
)

// TestResidencySquashBeforeIssue drives a run long enough to squash
// dispatched-but-unissued work (branch recovery rolls the ROB back over
// entries still waiting in the IQ) and checks the side-table layout keeps
// those uops' residencies exact: the flight recorder — fed from the
// materialized observer view — reconciles bit-for-bit with the tracker,
// and the squash-before-issue records carry no FU or LSQ-data residency.
func TestResidencySquashBeforeIssue(t *testing.T) {
	_, rec := runWithPipeTrace(t, 0, pipetrace.Options{}, 20_000)
	sawSquashBeforeIssue := false
	for i := range rec.Records() {
		r := &rec.Records()[i]
		if r.Dispatch < 0 || r.Issue >= 0 {
			continue
		}
		if r.Fate != avf.FateSquashed && r.Fate != avf.FateWrongPath {
			// End-of-run accounting closes still-unissued in-flight uops
			// with their heading-for fate; only squashes are the edge case
			// under test.
			continue
		}
		sawSquashBeforeIssue = true
		if got := r.Span(avf.FU); got.Cycles != 0 || got.Start != 0 {
			t.Errorf("gseq %d: unissued uop has FU span %+v", r.GSeq, got)
		}
		if got := r.Span(avf.LSQData); got.Cycles != 0 {
			t.Errorf("gseq %d: unissued uop has LSQ-data span %+v", r.GSeq, got)
		}
	}
	if !sawSquashBeforeIssue {
		t.Fatal("run squashed no dispatched-but-unissued uops; edge case not exercised")
	}
}

// TestResidencyObserverAttachedMidRun attaches the flight recorder halfway
// through a run. Pre-attach classifications take the batched occupancy
// path; post-attach ones must switch to the positioned-interval path and
// report every uop to the observer. The recorder's totals then reconcile
// bit-for-bit with the tracker's growth since the attach point — including
// the pending batch drained at the attach-time read.
func TestResidencyObserverAttachedMidRun(t *testing.T) {
	cfg := DefaultConfig(2)
	proc, err := New(cfg, benchProfiles(t, "mcf", "gcc"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3_000; i++ {
		proc.step()
	}
	trk := proc.Tracker()
	beforeRes := map[avf.Struct]uint64{}
	beforeACE := map[avf.Struct]uint64{}
	for _, s := range pipeStructs {
		beforeRes[s] = trk.OccupiedBitCycles(s)
		beforeACE[s] = trk.ACEBitCycles(s)
	}
	rec := pipetrace.New(pipetrace.Options{})
	proc.Attach(rec)
	for i := 0; i < 5_000; i++ {
		proc.step()
	}
	if rec.Len() == 0 {
		t.Fatal("recorder attached mid-run saw no uops")
	}
	for _, s := range pipeStructs {
		if got, want := rec.ResidentBitCycles(s), trk.OccupiedBitCycles(s)-beforeRes[s]; got != want {
			t.Errorf("%s: recorder resident bit-cycles %d, tracker grew %d since attach", s, got, want)
		}
		if got, want := rec.ACEBitCycles(s), trk.ACEBitCycles(s)-beforeACE[s]; got != want {
			t.Errorf("%s: recorder ACE bit-cycles %d, tracker grew %d since attach", s, got, want)
		}
	}
}
