package core

import (
	"reflect"
	"testing"

	"smtavf/internal/inject"
	"smtavf/internal/telemetry"
)

func warmProc(t *testing.T, cfg Config, names []string) *Processor {
	t.Helper()
	proc, err := New(cfg, profilesFor(t, names))
	if err != nil {
		t.Fatal(err)
	}
	return proc
}

// An all-zero skip must be a strict no-op: the run that follows is
// bit-identical to a run on an untouched processor.
func TestFunctionalWarmupZeroSkipIsNoop(t *testing.T) {
	cfg := DefaultConfig(2)
	names := []string{"gcc", "mcf"}

	plain := warmProc(t, cfg, names)
	want, err := plain.Run(Limits{PerThread: []uint64{5000, 5000}})
	if err != nil {
		t.Fatal(err)
	}

	warmed := warmProc(t, cfg, names)
	if err := warmed.FunctionalWarmup([]uint64{0, 0}, 0); err != nil {
		t.Fatal(err)
	}
	got, err := warmed.Run(Limits{PerThread: []uint64{5000, 5000}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("zero-skip FunctionalWarmup changed the run")
	}
}

// After a warmup skip, the detailed run picks up mid-stream: commits stay
// contiguous (the commit-order panic would fire otherwise) and the
// measurement covers exactly the per-thread quotas.
func TestFunctionalWarmupResumesMidStream(t *testing.T) {
	cfg := DefaultConfig(2)
	proc := warmProc(t, cfg, []string{"gcc", "mcf"})
	if err := proc.FunctionalWarmup([]uint64{5000, 3000}, 0); err != nil {
		t.Fatal(err)
	}
	res, err := proc.Run(Limits{PerThread: []uint64{2000, 1000}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed[0] != 2000 || res.Committed[1] != 1000 || res.Total != 3000 {
		t.Fatalf("measured commits %v (total %d), want [2000 1000]", res.Committed, res.Total)
	}
	for s, a := range res.AVF.Total {
		if a < 0 || a > 1 {
			t.Errorf("struct %d AVF %v out of range after functional warmup", s, a)
		}
	}
}

// Warmup must be deterministic and leave a trace: two identically warmed
// machines produce equal checkpoints, and warmed state differs from cold.
func TestFunctionalWarmupDeterministicCheckpoint(t *testing.T) {
	cfg := DefaultConfig(2)
	names := []string{"gcc", "mcf"}
	skip := []uint64{4000, 4000}

	a := warmProc(t, cfg, names)
	if err := a.FunctionalWarmup(skip, 0); err != nil {
		t.Fatal(err)
	}
	b := warmProc(t, cfg, names)
	if err := b.FunctionalWarmup(skip, 0); err != nil {
		t.Fatal(err)
	}
	cold := warmProc(t, cfg, names).Checkpoint()

	cpA, cpB := a.Checkpoint(), b.Checkpoint()
	if !reflect.DeepEqual(cpA, cpB) {
		t.Fatalf("checkpoints differ between identical warmups:\n%+v\n%+v", cpA, cpB)
	}
	if cpA.DL1 == cold.DL1 || cpA.IL1 == cold.IL1 || cpA.Gshare[0] == cold.Gshare[0] {
		t.Errorf("warmup left caches/predictors cold: %+v", cpA)
	}
	if got, want := cpA.StreamSeq, skip; !reflect.DeepEqual(got, want) {
		t.Errorf("checkpoint stream positions %v, want %v", got, want)
	}
}

func TestFunctionalWarmupErrors(t *testing.T) {
	cfg := DefaultConfig(1)
	proc := warmProc(t, cfg, []string{"gcc"})
	if err := proc.FunctionalWarmup([]uint64{1, 2}, 0); err == nil {
		t.Error("skip length mismatch accepted")
	}
	if _, err := proc.Run(Limits{PerThread: []uint64{100}}); err != nil {
		t.Fatal(err)
	}
	if err := proc.FunctionalWarmup([]uint64{10}, 0); err == nil {
		t.Error("FunctionalWarmup after Run accepted")
	}

	warm := DefaultConfig(1)
	warm.Warmup = 100
	proc = warmProc(t, warm, []string{"gcc"})
	if err := proc.FunctionalWarmup([]uint64{10}, 0); err == nil {
		t.Error("FunctionalWarmup with Config.Warmup accepted")
	}

	proc = warmProc(t, cfg, []string{"gcc"})
	proc.Attach(telemetry.New(telemetry.Options{}))
	if err := proc.FunctionalWarmup([]uint64{10}, 0); err == nil {
		t.Error("FunctionalWarmup with telemetry attached accepted")
	}

	proc = warmProc(t, cfg, []string{"gcc"})
	camp, err := inject.NewCampaign(StructBits(cfg), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	proc.Attach(camp)
	if err := proc.FunctionalWarmup([]uint64{10}, 0); err == nil {
		t.Error("FunctionalWarmup with a fault campaign attached accepted")
	}
}

// A bounded window must land on the same stream position and keep the
// structures warm enough to differ from cold.
func TestFunctionalWarmupWindow(t *testing.T) {
	cfg := DefaultConfig(1)
	proc := warmProc(t, cfg, []string{"gcc"})
	if err := proc.FunctionalWarmup([]uint64{10_000}, 2048); err != nil {
		t.Fatal(err)
	}
	cp := proc.Checkpoint()
	if cp.StreamSeq[0] != 10_000 {
		t.Fatalf("stream at %d after windowed warmup, want 10000", cp.StreamSeq[0])
	}
	res, err := proc.Run(Limits{PerThread: []uint64{1000}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed[0] != 1000 {
		t.Fatalf("committed %d, want 1000", res.Committed[0])
	}
}
