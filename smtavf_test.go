package smtavf_test

import (
	"strings"
	"testing"

	"smtavf"
)

func TestQuickstart(t *testing.T) {
	cfg := smtavf.DefaultConfig(2)
	sim, err := smtavf.New(cfg, smtavf.WithBenchmarks("bzip2", "mcf"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(10_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total < 10_000 {
		t.Fatalf("committed %d", res.Total)
	}
	if res.StructAVF(smtavf.IQ) <= 0 || res.StructAVF(smtavf.IQ) > 1 {
		t.Fatalf("IQ AVF %v", res.StructAVF(smtavf.IQ))
	}
}

func TestSimulatorSingleShot(t *testing.T) {
	sim, err := smtavf.New(smtavf.DefaultConfig(1), smtavf.WithBenchmarks("eon"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(1_000); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(1_000); err == nil || !strings.Contains(err.Error(), "single-shot") {
		t.Fatalf("second Run: %v", err)
	}
}

func TestNewBenchmarkErrors(t *testing.T) {
	if _, err := smtavf.New(smtavf.DefaultConfig(1), smtavf.WithBenchmarks("bogus")); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := smtavf.New(smtavf.DefaultConfig(2), smtavf.WithBenchmarks("eon")); err == nil {
		t.Error("benchmark/thread mismatch accepted")
	}
}

func TestRunPerThread(t *testing.T) {
	sim, err := smtavf.New(smtavf.DefaultConfig(2), smtavf.WithBenchmarks("bzip2", "eon"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunPerThread([]uint64{2_000, 3_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed[0] != 2_000 || res.Committed[1] != 3_000 {
		t.Fatalf("committed %v", res.Committed)
	}
}

func TestMixCatalog(t *testing.T) {
	mixes := smtavf.Mixes()
	if len(mixes) != 15 {
		t.Fatalf("%d mixes, want 15", len(mixes))
	}
	m, err := smtavf.MixByName("4ctx-MEM-A")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Benchmarks) != 4 {
		t.Fatalf("mix %v", m)
	}
	if _, err := smtavf.MixByName("bogus"); err == nil {
		t.Error("unknown mix accepted")
	}
}

func TestPolicyCatalog(t *testing.T) {
	if got := len(smtavf.Policies()); got != 6 {
		t.Fatalf("%d policies", got)
	}
	p, err := smtavf.PolicyByName("DWarn")
	if err != nil || p.Name() != "DWarn" {
		t.Fatalf("PolicyByName: %v %v", p, err)
	}
	if _, err := smtavf.PolicyByName("bogus"); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestBenchmarkCatalog(t *testing.T) {
	bs := smtavf.Benchmarks()
	if len(bs) < 15 {
		t.Fatalf("only %d benchmarks", len(bs))
	}
	found := false
	for _, b := range bs {
		if b == "mcf" {
			found = true
		}
	}
	if !found {
		t.Error("mcf missing from catalog")
	}
}

func TestStructsCatalog(t *testing.T) {
	ss := smtavf.Structs()
	if len(ss) != 10 {
		t.Fatalf("%d structures", len(ss))
	}
}

func TestSimulatorFromTraceFiles(t *testing.T) {
	paths := writeTestTraces(t, t.TempDir())
	cfg := smtavf.DefaultConfig(2)
	sim, err := smtavf.New(cfg, smtavf.WithTraceFiles(paths...))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(5_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total < 5_000 {
		t.Fatalf("trace replay committed %d", res.Total)
	}
	if res.Thread[0].Workload != "bzip2" {
		t.Fatalf("workload %q", res.Thread[0].Workload)
	}
	if _, err := smtavf.New(cfg, smtavf.WithTraceFiles("missing.trc", paths[1])); err == nil {
		t.Fatal("missing trace file accepted")
	}
}

func TestSimulatorPhased(t *testing.T) {
	cfg := smtavf.DefaultConfig(1)
	cfg.PhaseInterval = 2_000
	sim, err := smtavf.New(cfg, smtavf.WithPhases([][]string{{"eon", "twolf"}}, 3_000))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(12_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) < 2 {
		t.Fatalf("only %d phase samples", len(res.Phases))
	}
	if !strings.Contains(res.Thread[0].Workload, "phased") {
		t.Fatalf("workload %q", res.Thread[0].Workload)
	}
	if _, err := smtavf.New(cfg, smtavf.WithPhases([][]string{{"bogus"}}, 100)); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if _, err := smtavf.New(cfg, smtavf.WithPhases([][]string{{"eon"}}, 0)); err == nil {
		t.Fatal("zero period accepted")
	}
}

func TestRunMixFromTable2(t *testing.T) {
	m, err := smtavf.MixByName("2ctx-MIX-A")
	if err != nil {
		t.Fatal(err)
	}
	cfg := smtavf.DefaultConfig(m.Contexts)
	if err := cfg.SetPolicy("STALL"); err != nil {
		t.Fatal(err)
	}
	sim, err := smtavf.New(cfg, smtavf.WithBenchmarks(m.Benchmarks...))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(10_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "STALL" {
		t.Fatalf("policy %q", res.Policy)
	}
}
