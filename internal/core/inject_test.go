package core

import (
	"math"
	"testing"

	"smtavf/internal/avf"
	"smtavf/internal/inject"
)

// TestFaultInjectionCrossValidatesAVF runs a full simulation with a
// statistical fault-injection campaign attached and checks that the
// strike-based AVF estimate agrees with the ACE-residency computation for
// every structure — two independent derivations of the same quantity.
// It also checks that no structure is ever "overbooked" (more resident
// bits than capacity), which would reveal overlapping or double-counted
// intervals. Function units are exempt from the capacity check: pipelined
// units legitimately hold several in-flight operations, which the
// utilization-based FU accounting charges at full latency each.
func TestFaultInjectionCrossValidatesAVF(t *testing.T) {
	cfg := DefaultConfig(2)
	camp, err := inject.NewCampaign(StructBits(cfg), 1, 99) // exact: every cycle
	if err != nil {
		t.Fatal(err)
	}
	proc, err := New(cfg, profilesFor(t, []string{"gcc", "twolf"}))
	if err != nil {
		t.Fatal(err)
	}
	proc.Attach(camp)
	res, err := proc.Run(Limits{TotalInstructions: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range avf.Structs() {
		computed := res.StructAVF(s)
		estimated := camp.Estimate(s, res.Cycles)
		if math.Abs(computed-estimated) > 0.005+0.02*computed {
			t.Errorf("%v: ACE analysis %.4f vs fault injection %.4f", s, computed, estimated)
		}
		if s == avf.FU {
			continue
		}
		if n := camp.Overbooked(s); n != 0 {
			t.Errorf("%v: %d sample cycles exceed the structure's capacity (overlapping intervals)", s, n)
		}
	}
}

// TestFaultInjectionSparseSampling verifies the cheap sparse-sampling mode
// tracks the exact computation closely.
func TestFaultInjectionSparseSampling(t *testing.T) {
	cfg := DefaultConfig(2)
	camp, err := inject.NewCampaign(StructBits(cfg), 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := New(cfg, profilesFor(t, []string{"bzip2", "mcf"}))
	if err != nil {
		t.Fatal(err)
	}
	proc.Attach(camp)
	res, err := proc.Run(Limits{TotalInstructions: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []avf.Struct{avf.IQ, avf.ROB, avf.Reg, avf.DL1Data} {
		computed := res.StructAVF(s)
		estimated := camp.Estimate(s, res.Cycles)
		if math.Abs(computed-estimated) > 0.01+0.1*computed {
			t.Errorf("%v: computed %.4f vs sparse estimate %.4f", s, computed, estimated)
		}
	}
}
