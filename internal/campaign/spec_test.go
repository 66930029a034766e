package campaign

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"smtavf/internal/avf"
	"smtavf/internal/core"
	"smtavf/internal/inject"
)

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		ok   bool
	}{
		{"mix", Spec{Mix: "2ctx-CPU-A"}, true},
		{"benchmarks", Spec{Benchmarks: []string{"gcc", "mcf"}}, true},
		{"no source", Spec{}, false},
		{"two sources", Spec{Mix: "2ctx-CPU-A", Benchmarks: []string{"gcc"}}, false},
		{"bad version", Spec{V: 99, Mix: "2ctx-CPU-A"}, false},
		{"two kinds", Spec{Mix: "2ctx-CPU-A", CrossVal: &CrossValSpec{}, Explain: &ExplainSpec{}}, false},
		{"sharded run", Spec{Mix: "2ctx-CPU-A", Shards: 4}, true},
		{"sharded inject", Spec{Mix: "2ctx-CPU-A", Shards: 4, Inject: &InjectSpec{}}, false},
		{"sharded crossval", Spec{Mix: "2ctx-CPU-A", Shards: 4, CrossVal: &CrossValSpec{}}, false},
		{"negative shards", Spec{Mix: "2ctx-CPU-A", Shards: -1}, false},
		{"trace explain", Spec{TraceFiles: []string{"a.trace"}, Explain: &ExplainSpec{}}, false},
		{"bad protection struct", Spec{Mix: "2ctx-CPU-A", Protection: map[string]string{"Bogus": "ecc"}}, false},
		{"bad protection mode", Spec{Mix: "2ctx-CPU-A", Protection: map[string]string{"IQ": "raid"}}, false},
		{"good protection", Spec{Mix: "2ctx-CPU-A", Protection: map[string]string{"IQ": "ecc", "ROB": "parity"}}, true},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: validation passed, want error", tc.name)
		}
	}
}

func TestSpecKind(t *testing.T) {
	if k := (Spec{Mix: "2ctx-CPU-A"}).Kind(); k != KindRun {
		t.Fatalf("plain spec kind = %s", k)
	}
	if k := (Spec{Mix: "2ctx-CPU-A", CrossVal: &CrossValSpec{}}).Kind(); k != KindCrossVal {
		t.Fatalf("crossval spec kind = %s", k)
	}
	if k := (Spec{Mix: "2ctx-CPU-A", Propagation: &PropagationSpec{}}).Kind(); k != KindPropagation {
		t.Fatalf("propagation spec kind = %s", k)
	}
	if k := (Spec{Mix: "2ctx-CPU-A", Explain: &ExplainSpec{}}).Kind(); k != KindExplain {
		t.Fatalf("explain spec kind = %s", k)
	}
}

func TestSpecResolveDefaults(t *testing.T) {
	spec := Spec{Mix: "2ctx-CPU-A"}
	rv, err := spec.Resolve(Defaults{Seed: 7, Warmup: 1000, Budget: func(n int) uint64 { return uint64(n) * 10 }})
	if err != nil {
		t.Fatal(err)
	}
	if rv.Config.Seed != 7 {
		t.Errorf("seed = %d, want the default 7", rv.Config.Seed)
	}
	if rv.Config.Warmup != 1000 {
		t.Errorf("warmup = %d, want the default 1000", rv.Config.Warmup)
	}
	if rv.Quota != uint64(rv.Threads)*10 {
		t.Errorf("quota = %d, want the budget rule's %d", rv.Quota, rv.Threads*10)
	}
	if rv.Every != 1 || rv.CampaignSeed != 7 {
		t.Errorf("campaign knobs = (%d, %d), want (1, 7)", rv.Every, rv.CampaignSeed)
	}
	if !reflect.DeepEqual(rv.Seeds, []uint64{1}) {
		t.Errorf("seeds = %v, want [1]", rv.Seeds)
	}
	if len(rv.Profiles) != rv.Threads || rv.Threads != rv.Config.Threads {
		t.Errorf("profiles/threads mismatch: %d profiles, %d threads, cfg %d",
			len(rv.Profiles), rv.Threads, rv.Config.Threads)
	}
}

func TestSpecResolveOverrides(t *testing.T) {
	spec := Spec{
		Mix:           "2ctx-CPU-A",
		Policy:        "STALL",
		Seed:          11,
		Instructions:  5000,
		NoWarmup:      true,
		PhaseInterval: 256,
		Protection:    map[string]string{"IQ": "ecc"},
		Inject:        &InjectSpec{Every: 16, Seed: 99, Stop: inject.Stop{MaxStrikes: 5}},
		CrossVal:      &CrossValSpec{Seeds: []uint64{3, 4}},
	}
	rv, err := spec.Resolve(Defaults{Seed: 7, Warmup: 1000, Budget: func(int) uint64 { return 1 }})
	if err != nil {
		t.Fatal(err)
	}
	if rv.Config.Seed != 11 || rv.Config.Warmup != 0 || rv.Config.PhaseInterval != 256 {
		t.Errorf("cfg (seed, warmup, phase) = (%d, %d, %d), want (11, 0, 256)",
			rv.Config.Seed, rv.Config.Warmup, rv.Config.PhaseInterval)
	}
	if rv.Config.Policy == nil || rv.Config.Policy.Name() != "STALL" {
		t.Errorf("policy = %v, want STALL", rv.Config.Policy)
	}
	if rv.Quota != 5000 || rv.Every != 16 || rv.CampaignSeed != 99 || rv.Stop.MaxStrikes != 5 {
		t.Errorf("quota/every/seed/stop = %d/%d/%d/%d", rv.Quota, rv.Every, rv.CampaignSeed, rv.Stop.MaxStrikes)
	}
	if !reflect.DeepEqual(rv.Seeds, []uint64{3, 4}) {
		t.Errorf("seeds = %v", rv.Seeds)
	}
	if rv.Protection[avf.IQ] != core.ProtectECC || rv.Protection[avf.ROB] != core.ProtectNone {
		t.Errorf("protection = %v", rv.Protection)
	}
}

func TestSpecResolveMachineOverride(t *testing.T) {
	machine := core.DefaultConfig(2)
	machine.IQSize = 16
	machine.Threads = 99 // must be forced back to the workload's count
	spec := Spec{Benchmarks: []string{"gcc", "mcf"}, Machine: &machine}
	rv, err := spec.Resolve(Defaults{})
	if err != nil {
		t.Fatal(err)
	}
	if rv.Config.IQSize != 16 {
		t.Errorf("machine override lost: IQSize = %d", rv.Config.IQSize)
	}
	if rv.Config.Threads != 2 {
		t.Errorf("threads = %d, want the workload's 2", rv.Config.Threads)
	}
	if rv.Config.Seed != 1 {
		t.Errorf("seed = %d, want the final fallback 1", rv.Config.Seed)
	}
}

func TestProtectionRoundTrip(t *testing.T) {
	var p core.ProtectionModes
	p[avf.IQ] = core.ProtectECC
	p[avf.DL1Data] = core.ProtectParity
	m := ProtectionMap(p)
	back, err := ParseProtection(m)
	if err != nil {
		t.Fatal(err)
	}
	if back != p {
		t.Fatalf("round trip: %v != %v", back, p)
	}
	if ProtectionMap(core.ProtectionModes{}) != nil {
		t.Fatal("all-silent protection should map to nil")
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	spec := Spec{
		Mix:        "2ctx-CPU-A",
		Policy:     "FLUSH",
		Seed:       3,
		Protection: map[string]string{"IQ": "ecc"},
		Inject:     &InjectSpec{Every: 8, Stop: inject.Stop{MaxStrikes: 100}},
	}
	data, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	points, matrix, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	spec.V = SpecVersion
	if matrix || len(points) != 1 || !reflect.DeepEqual(points[0], spec) {
		t.Fatalf("round trip changed the spec:\n got %+v (matrix %v)\nwant %+v", points, matrix, spec)
	}
}

// TestReadSpecFileRejectsInvalid covers invalid specs and the strict
// decode: a misspelled key anywhere — top level, inside the machine
// override, on a matrix, or inside a machine patch — is an error, never
// a silently ignored field that runs the default.
func TestReadSpecFileRejectsInvalid(t *testing.T) {
	for name, body := range map[string]string{
		"sourceless":        `{"v":1}`,
		"typo'd key":        `{"mix":"2ctx-CPU-A","polcy":"FLUSH"}`,
		"typo'd machine":    `{"mix":"2ctx-CPU-A","machine":{"IQSzie":48}}`,
		"trailing data":     `{"mix":"2ctx-CPU-A"} {"mix":"2ctx-MEM-A"}`,
		"typo'd matrix key": `{"base":{"mix":"2ctx-CPU-A"},"polices":["FLUSH"]}`,
		"typo'd base key":   `{"base":{"mix":"2ctx-CPU-A","seeed":3}}`,
		"typo'd patch":      `{"base":{"mix":"2ctx-CPU-A"},"machines":[{"IQSize":48},{"ROBSzie":64}]}`,
		"not an object":     `["2ctx-CPU-A"]`,
	} {
		path := filepath.Join(t.TempDir(), "spec.json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ReadFile(path); err == nil {
			t.Errorf("%s: %s loaded without error", name, body)
		}
	}
}

// TestReadFileMatrix: a file with a "base" key is a matrix and expands
// into its points.
func TestReadFileMatrix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.json")
	body := `{"base":{"mix":"2ctx-MIX-A","instructions":30000},"policies":["ICOUNT","FLUSH"],"machines":[{"IQSize":48},{"IQSize":96}]}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	points, matrix, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix || len(points) != 4 {
		t.Fatalf("got %d points (matrix %v), want a 4-point matrix", len(points), matrix)
	}
	if points[3].Name != `FLUSH/{"IQSize":96}` || points[3].Machine.IQSize != 96 {
		t.Errorf("point 3 = %q with IQSize %d", points[3].Name, points[3].Machine.IQSize)
	}
}

func TestSpecOmitsZeroFields(t *testing.T) {
	data, err := json.Marshal(Spec{V: SpecVersion, Mix: "2ctx-CPU-A"})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"v":1,"mix":"2ctx-CPU-A"}`
	if string(data) != want {
		t.Fatalf("minimal spec marshals to %s, want %s", data, want)
	}
}
