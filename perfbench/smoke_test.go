package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks
// the program against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload once at a tiny length, untraced and
// traced, and checks that the output checks pass and that every metric
// BENCHMARK.json names is printed with its unit.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for _, traceOn := range []bool{false, true} {
			rep, err := run(options{workload: w.Name, seed: 3, seconds: 1e-3, trace: traceOn,
				scale: 0.005, workDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traceOn, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, traceOn, rep.Correct, rep.Attempted, rep.Failed)
			}
			want := spec.EndToEnd
			if traceOn {
				want = spec.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json lists %d", w.Name, traceOn, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not printed", w.Name, traceOn, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json says %q", w.Name, traceOn, m.Name, got.Unit, m.Unit)
				case !traceOn && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestSeedDeterminesInputs checks that a seed reproduces its digest and
// that another seed gives another workload.
func TestSeedDeterminesInputs(t *testing.T) {
	digestOf := func(seed uint64) uint64 {
		m, err := workloads["core-cpu"].measure(options{workload: "core-cpu", seed: seed, seconds: 1e-3,
			scale: 0.002, workDir: t.TempDir()}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return m.digest
	}
	a, b, c := digestOf(5), digestOf(5), digestOf(6)
	if a != b {
		t.Errorf("seed 5 gave digests %#x and %#x", a, b)
	}
	if a == c {
		t.Errorf("seeds 5 and 6 gave the same digest %#x", a)
	}
}
