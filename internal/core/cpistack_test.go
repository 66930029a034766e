package core

import (
	"testing"

	"smtavf/internal/avf"
	"smtavf/internal/cpistack"
	"smtavf/internal/inject"
)

// runWithCPIStack runs mcf+gcc with a CPI-stack observer attached first
// and any extra observers after it.
func runWithCPIStack(t *testing.T, warmup uint64, opt cpistack.Options, total uint64, extra ...any) (*Processor, *cpistack.Observer, *Results) {
	t.Helper()
	cfg := DefaultConfig(2)
	cfg.Warmup = warmup
	proc, err := New(cfg, benchProfiles(t, "mcf", "gcc"))
	if err != nil {
		t.Fatal(err)
	}
	o := cpistack.New(opt)
	proc.Attach(o)
	proc.Attach(extra...)
	res, err := proc.Run(Limits{TotalInstructions: total})
	if err != nil {
		t.Fatal(err)
	}
	return proc, o, res
}

// TestCPIStackSumsToCycles is half the reconciliation contract: every
// thread-cycle of the measurement window is attributed to exactly one
// stack component, so per-thread components sum to the simulated cycle
// count — cold and across a warmup rebase.
func TestCPIStackSumsToCycles(t *testing.T) {
	for _, tc := range []struct {
		name   string
		warmup uint64
	}{
		{"cold", 0},
		{"with-warmup", 5_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, o, res := runWithCPIStack(t, tc.warmup, cpistack.Options{WindowCycles: 2048}, 20_000)
			for tid := 0; tid < o.Threads(); tid++ {
				if got, want := o.CycleCount(tid), res.Cycles; got != want {
					t.Errorf("thread %d: stack components sum to %d cycles, simulated %d", tid, got, want)
				}
			}
			// The windowed view decomposes the same totals exactly: within
			// each window the per-thread stacks sum to the window span.
			wins := o.Windows()
			if len(wins) < 2 {
				t.Fatalf("only %d windows; want several", len(wins))
			}
			var winSum uint64
			for _, w := range wins {
				var sum uint64
				for _, col := range w.Stack {
					for _, v := range col {
						sum += v
					}
				}
				if want := (w.End - w.Start) * uint64(o.Threads()); sum != want {
					t.Errorf("window %d: stack sums to %d thread-cycles, span holds %d", w.Index, sum, want)
				}
				winSum += sum
			}
			if want := res.Cycles * uint64(o.Threads()); winSum != want {
				t.Errorf("windows sum to %d thread-cycles, run measured %d", winSum, want)
			}
		})
	}
}

// TestCPIStackOccupancyMatchesTracker is the other half: the
// occupancy-by-fate decomposition replays the tracker's clipped-interval
// arithmetic (uop residencies at the classification sites, register-file
// intervals through the tracker's sink), so per-structure sums match the
// tracker's ACE and occupied bit-cycle totals bit for bit — also when the
// observer is attached before a fault campaign that shares the sink
// stream.
func TestCPIStackOccupancyMatchesTracker(t *testing.T) {
	for _, tc := range []struct {
		name     string
		warmup   uint64
		campaign bool
	}{
		{"cold", 0, false},
		{"with-warmup", 5_000, false},
		{"cpistack attached before the fault campaign", 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var extra []any
			if tc.campaign {
				camp, err := inject.NewCampaign(StructBits(DefaultConfig(2)), 64, 1)
				if err != nil {
					t.Fatal(err)
				}
				extra = append(extra, camp)
			}
			proc, o, _ := runWithCPIStack(t, tc.warmup, cpistack.Options{WindowCycles: 2048}, 20_000, extra...)
			trk := proc.Tracker()
			for _, s := range cpistack.OccupancyStructs() {
				if got, want := o.ACEBitCycles(s), trk.ACEBitCycles(s); got != want {
					t.Errorf("%s: observer ACE bit-cycles %d, tracker %d", s, got, want)
				}
				if got, want := o.ResidentBitCycles(s), trk.OccupiedBitCycles(s); got != want {
					t.Errorf("%s: observer resident bit-cycles %d, tracker %d", s, got, want)
				}
				// And the windowed fate split decomposes those totals exactly.
				var winSum uint64
				for _, w := range o.Windows() {
					for _, v := range w.Occupancy[s.String()] {
						winSum += v
					}
				}
				if want := trk.OccupiedBitCycles(s); winSum != want {
					t.Errorf("%s: windowed fate split sums to %d bit-cycles, tracker %d", s, winSum, want)
				}
			}
		})
	}
}

// TestCPIStackDetachedRunIdentical checks the observer never perturbs the
// simulation: cycles, commits, and AVF match a detached run.
func TestCPIStackDetachedRunIdentical(t *testing.T) {
	run := func(attach bool) *Results {
		cfg := DefaultConfig(2)
		proc, err := New(cfg, benchProfiles(t, "mcf", "gcc"))
		if err != nil {
			t.Fatal(err)
		}
		if attach {
			proc.Attach(cpistack.New(cpistack.Options{}))
		}
		res, err := proc.Run(Limits{TotalInstructions: 10_000})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	with, without := run(true), run(false)
	if with.Cycles != without.Cycles || with.Total != without.Total {
		t.Fatalf("observer perturbed the run: %d/%d cycles, %d/%d commits",
			with.Cycles, without.Cycles, with.Total, without.Total)
	}
	for s := avf.Struct(0); s < avf.NumStructs; s++ {
		if with.StructAVF(s) != without.StructAVF(s) {
			t.Fatalf("%s AVF differs with observer attached", s)
		}
	}
}

// TestCPIStackComponentsPopulated sanity-checks the attribution rule on a
// memory-bound 2-thread mix: the base component exists (work committed),
// and at least one memory-stall component is charged — an all-base stack
// would mean the priority chain short-circuits.
func TestCPIStackComponentsPopulated(t *testing.T) {
	_, o, _ := runWithCPIStack(t, 0, cpistack.Options{}, 20_000)
	var base, mem uint64
	for tid := 0; tid < o.Threads(); tid++ {
		base += o.ComponentCycles(tid, cpistack.CompBase)
		mem += o.ComponentCycles(tid, cpistack.CompDCacheMiss) +
			o.ComponentCycles(tid, cpistack.CompL2Miss)
	}
	if base == 0 {
		t.Error("no cycles attributed to base on a committing run")
	}
	if mem == 0 {
		t.Error("no cycles attributed to memory stalls on an mcf mix")
	}
}
