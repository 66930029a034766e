package propagation_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"smtavf/internal/avf"
	"smtavf/internal/core"
	"smtavf/internal/inject"
	"smtavf/internal/propagation"
	"smtavf/internal/trace"
	"smtavf/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// run describes one deterministic simulation the propagation tests record.
type run struct {
	benches    []string
	total      uint64 // committed instructions
	every      uint64 // campaign sampling interval
	seed       uint64
	strikesPer int // strikes sampled per structure
	policy     string
	opt        propagation.Options
}

// record drives the simulation with a campaign and tracer attached and
// samples r.strikesPer strikes into every structure.
func record(tb testing.TB, r run) (*propagation.Tracer, []inject.Strike) {
	tb.Helper()
	cfg := core.DefaultConfig(len(r.benches))
	cfg.Seed = r.seed
	if r.policy != "" {
		if err := cfg.SetPolicy(r.policy); err != nil {
			tb.Fatal(err)
		}
	}
	profiles := make([]trace.Profile, 0, len(r.benches))
	for _, b := range r.benches {
		p, err := workload.Profile(b)
		if err != nil {
			tb.Fatal(err)
		}
		profiles = append(profiles, p)
	}
	camp, err := inject.NewCampaign(core.StructBits(cfg), r.every, r.seed)
	if err != nil {
		tb.Fatal(err)
	}
	proc, err := core.New(cfg, profiles)
	if err != nil {
		tb.Fatal(err)
	}
	tracer := propagation.New(r.opt)
	proc.Attach(camp, tracer)
	res, err := proc.Run(core.Limits{TotalInstructions: r.total})
	if err != nil {
		tb.Fatal(err)
	}
	if tracer.Len() == 0 {
		tb.Fatal("tracer recorded no nodes")
	}
	if tracer.Dropped() != 0 {
		tb.Fatalf("tracer dropped %d nodes below the cap", tracer.Dropped())
	}
	var strikes []inject.Strike
	for _, s := range avf.Structs() {
		strikes = append(strikes, camp.SampleStrikes(s, res.Cycles, r.strikesPer)...)
	}
	return tracer, strikes
}

// runAtlas records one run and analyzes its strikes.
func runAtlas(t *testing.T, benches []string, total uint64, every, seed uint64,
	strikesPer int, opt propagation.Options) (*propagation.Atlas, []inject.Strike) {
	t.Helper()
	tracer, strikes := record(t, run{benches: benches, total: total, every: every,
		seed: seed, strikesPer: strikesPer, opt: opt})
	return tracer.Analyze(strikes), strikes
}

// TestAtlasEndToEnd runs a two-thread workload and checks the atlas
// surfaces every acceptance property: resolved victims, multi-hop
// propagation over every modeled edge type, and — the SMT-specific result
// — cross-thread contamination through the shared DL1 (a nonzero
// off-diagonal contamination-matrix entry).
func TestAtlasEndToEnd(t *testing.T) {
	atlas, strikes := runAtlas(t, []string{"mcf", "gcc"}, 20_000, 2, 7, 64,
		propagation.Options{})
	if atlas.Strikes != len(strikes) {
		t.Fatalf("atlas covers %d strikes, sampled %d", atlas.Strikes, len(strikes))
	}
	if atlas.Resolved == 0 {
		t.Fatal("no strike resolved a victim")
	}
	sum := 0
	for _, n := range atlas.Terminals {
		sum += n
	}
	if sum != atlas.Strikes {
		t.Fatalf("terminal counts sum to %d, want %d", sum, atlas.Strikes)
	}
	if atlas.Terminals[propagation.TerminalSDC] == 0 {
		t.Error("no trace terminated in SDC")
	}
	for _, typ := range []string{propagation.EdgeReg, propagation.EdgeMemory} {
		if atlas.EdgeCounts[typ] == 0 {
			t.Errorf("no %s edges traversed", typ)
		}
	}
	if atlas.MaxDepth < 2 {
		t.Errorf("max depth %d, want multi-hop propagation", atlas.MaxDepth)
	}
	// The SMT headline: corruption crossing the thread boundary through
	// the shared DL1 must appear off the matrix diagonal.
	if atlas.CrossEdges() == 0 {
		t.Fatal("no cross-thread contamination recorded")
	}
	off := false
	for i := range atlas.Matrix {
		for j := range atlas.Matrix[i] {
			if i != j && atlas.Matrix[i][j] > 0 {
				off = true
			}
		}
	}
	if !off {
		t.Fatal("contamination matrix has no nonzero off-diagonal entry")
	}

	tables := atlas.Tables(10)
	for _, want := range []string{"fault-propagation atlas", "root causes",
		"contamination matrix", "escape routes"} {
		if !bytes.Contains([]byte(tables), []byte(want)) {
			t.Errorf("Tables output missing %q", want)
		}
	}
}

// TestTraceJSONLRoundTrip checks traces survive serialization bit-exactly
// and that re-aggregating the decoded traces reproduces the matrix.
func TestTraceJSONLRoundTrip(t *testing.T) {
	atlas, _ := runAtlas(t, []string{"mcf", "gcc"}, 12_000, 3, 11, 24,
		propagation.Options{MaxRecordedHops: 8})
	var buf bytes.Buffer
	if err := propagation.WriteJSONL(&buf, atlas.Traces); err != nil {
		t.Fatal(err)
	}
	back, err := propagation.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(atlas.Traces) {
		t.Fatalf("read %d traces, wrote %d", len(back), len(atlas.Traces))
	}
	for i := range back {
		if !reflect.DeepEqual(back[i], atlas.Traces[i]) {
			t.Fatalf("trace %d changed across the round trip:\n got %+v\nwant %+v",
				i, back[i], atlas.Traces[i])
		}
	}
	rebuilt := propagation.NewAtlas(2)
	for _, tr := range back {
		rebuilt.Add(tr)
	}
	if !reflect.DeepEqual(rebuilt.Matrix, atlas.Matrix) {
		t.Fatalf("matrix rebuilt from JSONL = %v, want %v", rebuilt.Matrix, atlas.Matrix)
	}
}

// TestGoldenJSONL pins the serialized atlas of a small deterministic run:
// the same seed must produce byte-identical traces across releases, and
// the golden file itself must parse under the current schema version.
func TestGoldenJSONL(t *testing.T) {
	atlas, _ := runAtlas(t, []string{"mcf", "gcc"}, 8_000, 4, 13, 8,
		propagation.Options{MaxRecordedHops: 8})
	var buf bytes.Buffer
	if err := propagation.WriteJSONL(&buf, atlas.Traces); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "atlas.jsonl")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (rerun with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("atlas JSONL drifted from %s (rerun with -update if intended);\ngot %d bytes, want %d",
			golden, buf.Len(), len(want))
	}
	traces, err := propagation.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	for i := range traces {
		if traces[i].V != propagation.SchemaVersion {
			t.Fatalf("golden trace %d carries schema v%d, want v%d",
				i, traces[i].V, propagation.SchemaVersion)
		}
	}
}

// TestDetachedTracerNoOps pins the nil-receiver convention the hot path
// relies on.
func TestDetachedTracerNoOps(t *testing.T) {
	var tr *propagation.Tracer
	tr.Record(nil, 0, false)
	tr.Rebase(5)
	tr.Configure(core.DefaultConfig(1).Bits, core.DefaultConfig(1).DL1, 1)
	tr.PublishTelemetry(nil)
	if tr.Len() != 0 || tr.Dropped() != 0 {
		t.Fatal("detached tracer reports state")
	}
}

// TestMaskedAndProtectedStrikes checks the terminal taxonomy: masked
// strikes carry no victim, and parity/ECC outcomes cut propagation at hop
// zero even when the victim resolves.
func TestMaskedAndProtectedStrikes(t *testing.T) {
	atlas, strikes := runAtlas(t, []string{"mcf"}, 6_000, 4, 3, 16,
		propagation.Options{})
	for i, tr := range atlas.Traces {
		st := strikes[i]
		switch st.Outcome {
		case inject.Masked:
			if tr.Resolved || tr.Terminal != propagation.TerminalMasked || tr.Tainted != 0 {
				t.Fatalf("masked strike %d traced: %+v", i, tr)
			}
		case inject.SDC:
			if tr.Resolved && tr.Tainted == 0 {
				t.Fatalf("resolved SDC strike %d tainted nothing: %+v", i, tr)
			}
		}
		if tr.TID != st.TID || tr.Cycle != st.Cycle || tr.Struct != st.Struct.String() {
			t.Fatalf("trace %d does not mirror its strike: %+v vs %+v", i, tr, st)
		}
	}
}

// sweepStrikes returns corrupting strikes on each of n consecutive cycles
// from the middle of the sampled strikes' span, into every uop-tracked
// structure and the register file, for every thread. Striking every cycle
// lands strikes exactly on residency and writeback boundaries, where an
// off-by-one in victim resolution shows.
func sweepStrikes(sampled []inject.Strike, threads int, n uint64) []inject.Strike {
	var last uint64
	for _, st := range sampled {
		last = max(last, st.Cycle)
	}
	var out []inject.Strike
	for c := last / 2; c < last/2+n; c++ {
		for _, s := range []avf.Struct{avf.IQ, avf.ROB, avf.LSQTag, avf.LSQData, avf.FU, avf.Reg} {
			for tid := range threads {
				out = append(out, inject.Strike{Struct: s, Cycle: c, Bit: c, TID: tid,
					ThreadBit: c * 2654435761, Outcome: inject.SDC})
			}
		}
	}
	return out
}

// TestAnalyzeMatchesReference checks the indexed analysis against the
// naive reference (reference_test.go), which resolves every victim by
// scanning all nodes and every consumer list by scanning whole writer and
// reader lists. Over 1, 2 and 4 threads, sampled strikes into every
// structure plus a sweep of consecutive strike cycles, and node and hop
// bounds that truncate the expansion, every trace and the rendered tables
// must be identical.
func TestAnalyzeMatchesReference(t *testing.T) {
	runs := []run{
		{benches: []string{"mcf"}, total: 8_000, every: 8, seed: 5, strikesPer: 256},
		{benches: []string{"mcf", "gcc"}, total: 10_000, every: 8, seed: 9, strikesPer: 256,
			opt: propagation.Options{MaxNodes: 16}},
		{benches: []string{"gcc", "mcf", "vpr", "perlbmk"}, total: 12_000, every: 8, seed: 21,
			strikesPer: 256, opt: propagation.Options{MaxHops: 4, MaxRecordedHops: 8}},
		{benches: []string{"mcf", "equake", "vpr", "swim"}, total: 10_000, every: 4, seed: 3,
			strikesPer: 256, policy: "FLUSH", opt: propagation.Options{MaxNodes: 256}},
	}
	for _, r := range runs {
		name := fmt.Sprintf("%dT-seed%d", len(r.benches), r.seed)
		t.Run(name, func(t *testing.T) {
			tracer, strikes := record(t, r)
			strikes = append(strikes, sweepStrikes(strikes, len(r.benches), 16)...)
			got := tracer.Analyze(strikes)
			want := propagation.ReferenceAnalyze(tracer, strikes)
			if len(got.Traces) != len(want.Traces) {
				t.Fatalf("%d traces, reference %d", len(got.Traces), len(want.Traces))
			}
			resolved := map[string]bool{}
			for i := range want.Traces {
				if !reflect.DeepEqual(got.Traces[i], want.Traces[i]) {
					t.Fatalf("trace %d (%s strike at cycle %d) differs from the reference:\n got %+v\nwant %+v",
						i, strikes[i].Struct, strikes[i].Cycle, got.Traces[i], want.Traces[i])
				}
				if got.Traces[i].Resolved {
					resolved[got.Traces[i].Struct] = true
				}
			}
			if g, w := got.Tables(20), want.Tables(20); g != w {
				t.Fatalf("Tables differ from the reference:\n got:\n%s\nwant:\n%s", g, w)
			}
			for _, s := range []avf.Struct{avf.IQ, avf.ROB, avf.LSQTag, avf.LSQData, avf.FU, avf.Reg, avf.DL1Data, avf.DL1Tag} {
				if !resolved[s.String()] {
					t.Errorf("no %s strike resolved a victim; the comparison does not cover it", s)
				}
			}
			if r.opt.MaxNodes != 0 && got.Truncated == 0 {
				t.Errorf("MaxNodes %d truncated no trace", r.opt.MaxNodes)
			}
			if r.opt.MaxHops != 0 && got.MaxDepth != r.opt.MaxHops {
				t.Errorf("max depth %d, want the MaxHops bound %d reached", got.MaxDepth, r.opt.MaxHops)
			}
		})
	}
}

// BenchmarkPropagationAnalyze times Analyze alone: one 4-thread run is
// recorded once, then each iteration analyzes 64 strikes per structure.
func BenchmarkPropagationAnalyze(b *testing.B) {
	tracer, strikes := record(b, run{benches: []string{"gcc", "mcf", "vpr", "perlbmk"},
		total: 40_000, every: 4, seed: 7, strikesPer: 64,
		opt: propagation.Options{MaxNodes: 256}})
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		tracer.Analyze(strikes)
	}
}

// FuzzReadJSONL: the reader never panics, and every stream it accepts
// re-encodes with WriteJSONL and reads back to the same trace count.
func FuzzReadJSONL(f *testing.F) {
	data, err := os.ReadFile(filepath.Join("testdata", "atlas.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	// Seed with the first two traces: a whole-atlas seed (80 traces) makes
	// every execution, and the minimization of each new input, far slower.
	lines := bytes.SplitAfter(data, []byte("\n"))
	f.Add(bytes.Join(lines[:2], nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		traces, err := propagation.ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := propagation.WriteJSONL(&buf, traces); err != nil {
			t.Fatalf("accepted traces do not re-encode: %v", err)
		}
		back, err := propagation.ReadJSONL(&buf)
		if err != nil || len(back) != len(traces) {
			t.Fatalf("re-encoded stream reads back %d of %d traces (%v)", len(back), len(traces), err)
		}
	})
}
