package propagation

import (
	"math/rand/v2"
	"strings"
	"testing"

	"smtavf/internal/avf"
	"smtavf/internal/inject"
	"smtavf/internal/isa"
	"smtavf/internal/pipeline"
)

// randomUop returns a uop of a random class with random registers and
// residencies around retire: spans mostly close at or before retire, some
// run past it, and some are empty.
func randomUop(rng *rand.Rand, gseq, retire uint64) *pipeline.Uop {
	u := &pipeline.Uop{
		Instruction: isa.Instruction{PC: 0x400 + 4*rng.Uint64N(32), Class: isa.Class(rng.IntN(isa.NumClasses))},
		TID:         rng.IntN(2),
		GSeq:        gseq,
		PhysSrc1:    rng.IntN(12) - 2,
		PhysSrc2:    rng.IntN(12) - 2,
		PhysDest:    rng.IntN(12) - 2,
		Issued:      rng.IntN(5) > 0,
		Executed:    rng.IntN(4) > 0,
	}
	span := func() (start, cycles uint64) {
		start = retire - min(retire, rng.Uint64N(30))
		cycles = rng.Uint64N(min(retire-start+3, 40))
		return start, cycles
	}
	u.EnterIQ, u.IQCycles = span()
	u.EnterROB, u.ROBCycles = span()
	u.EnterLSQ, u.LSQTagCycles = span()
	u.DataAt, u.LSQDataCycles = span()
	u.IssuedAt, u.FUCycles = span()
	u.ReadyAt = u.IssuedAt + rng.Uint64N(4)
	return u
}

// randomTracer records n random uops in retire order with unique gseqs.
func randomTracer(seed uint64, n int) *Tracer {
	rng := rand.New(rand.NewPCG(seed, 0))
	tr := New(Options{})
	var retire uint64 = 40
	for i, g := range rng.Perm(n) {
		retire += rng.Uint64N(3)
		tr.Record(randomUop(rng, uint64(g), retire), retire, i%7 == 0)
	}
	return tr
}

// TestResolveMatchesReferenceExhaustive strikes every cycle of a small
// random recording, in every uop-tracked structure and the register file,
// for both threads, and requires the indexed victim resolution to pick
// exactly the victim the full-scan reference picks. Striking every cycle
// reaches both edges of the retire window, including the node whose
// residency defines the window's width.
func TestResolveMatchesReferenceExhaustive(t *testing.T) {
	for seed := range uint64(4) {
		tr := randomTracer(seed, 600)
		a, ref := tr.build(), refBuild(tr)
		last := tr.node(tr.n - 1).retire
		for c := uint64(0); c < last+50; c++ {
			for _, s := range []avf.Struct{avf.IQ, avf.ROB, avf.LSQTag, avf.LSQData, avf.FU, avf.Reg} {
				for tid := range 2 {
					st := inject.Strike{Struct: s, Cycle: c, TID: tid, ThreadBit: c * 31, Outcome: inject.SDC}
					gv, _, gok := a.resolve(st)
					wv, _, wok := ref.resolve(st)
					if gv != wv || gok != wok {
						t.Fatalf("seed %d: %s strike at cycle %d tid %d resolved to (%d, %v), reference (%d, %v)",
							seed, s, c, tid, gv, gok, wv, wok)
					}
				}
			}
		}
	}
}

// TestBuildPanicsOnRetireOrder checks the retire-order precondition victim
// resolution relies on is asserted, naming the offending node.
func TestBuildPanicsOnRetireOrder(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 0))
	tr := New(Options{})
	tr.Record(randomUop(rng, 0, 100), 100, false)
	tr.Record(randomUop(rng, 1, 120), 120, false)
	tr.Record(randomUop(rng, 2, 90), 90, false)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "node 2") || !strings.Contains(msg, "retire order") {
			t.Fatalf("build over out-of-order retire cycles: recovered %q, want a panic naming node 2", msg)
		}
	}()
	tr.Analyze(nil)
}

// TestTracerRecordNoCopy pins the node storage contract: appending never
// moves a recorded node, and recording allocates about one page per
// pageSize nodes.
func TestTracerRecordNoCopy(t *testing.T) {
	const more = 100_000
	rng := rand.New(rand.NewPCG(2, 0))
	u := randomUop(rng, 0, 50)
	tr := New(Options{})
	tr.Record(u, 50, false)
	first, snapshot := tr.node(0), *tr.node(0)
	allocs := testing.AllocsPerRun(1, func() {
		for i := range more {
			u.GSeq = uint64(i + 1)
			tr.Record(u, 60, false)
		}
	})
	if tr.node(0) != first || *first != snapshot {
		t.Fatal("node 0 moved or changed while later nodes were recorded")
	}
	// AllocsPerRun ran the closure twice (warm-up and measured), so the
	// measured run recorded nodes more+1 .. 2*more.
	if tr.Len() != 2*more+1 {
		t.Fatalf("Len %d, want %d", tr.Len(), 2*more+1)
	}
	pagesFor := func(n int) int { return (n + pageSize - 1) / pageSize }
	pages := pagesFor(2*more+1) - pagesFor(more+1)
	if limit := float64(pages + 8); allocs > limit {
		t.Fatalf("%v allocations to record %d nodes, want at most %v (one per page plus a constant)",
			allocs, more, limit)
	}
}
