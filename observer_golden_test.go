// Bit-identity contract of the observer layer.
//
// TestHotLoopBitIdentity pins detached runs only. This test pins what the
// observers themselves report on one run with all five attached through the
// With* options, a warmup rebase and phase sampling: telemetry windows,
// pipetrace records, CPI-stack windows, the injection campaign's estimate
// per structure, propagation traces for a fixed strike sample, and
// Results.Phases. Any refactor of how observers attach or sample must leave
// the digest where it is.
//
// To regenerate after an INTENTIONAL change to what an observer reports,
// run:
//
//	SMTAVF_WRITE_GOLDEN=1 go test -run TestObserverGolden -v .
//
// and paste the printed value over observerGolden.
package smtavf_test

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"testing"

	"smtavf"
	"smtavf/internal/digest"
	"smtavf/internal/telemetry"
)

// observerGolden is the digest of every observer output of the pinned run,
// recorded before the observers moved onto Processor.Attach.
const observerGolden uint64 = 0x9deaf10d1c2bdb3b

// windowLog is a telemetry exporter that keeps every window, so the digest
// does not depend on the collector's ring size.
type windowLog struct{ ws []telemetry.Window }

func (l *windowLog) Export(w telemetry.Window) error { l.ws = append(l.ws, w); return nil }
func (l *windowLog) Close() error                    { return nil }

// mixJSON folds the JSON encoding of v into h. Map keys encode sorted and
// floats in their shortest round-trip form, so equal values always hash
// equal and any bit of drift changes the hash.
func mixJSON(t *testing.T, h uint64, v any) uint64 {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range b {
		h = digest.Mix(h, uint64(c))
	}
	return digest.Mix(h, uint64(len(b)))
}

// observerDigest runs the pinned workload with every observer attached and
// folds their outputs, in a fixed order, into one hash.
func observerDigest(t *testing.T) uint64 {
	t.Helper()
	cfg := smtavf.DefaultConfig(2)
	cfg.Seed = 1
	cfg.Warmup = 3_000
	cfg.PhaseInterval = 1_500
	col := smtavf.NewTelemetry(smtavf.TelemetryOptions{WindowCycles: 2_000})
	wins := &windowLog{}
	col.AddExporter(wins)
	rec := smtavf.NewPipeTrace(smtavf.PipeTraceOptions{})
	stack := smtavf.NewCPIStack(smtavf.CPIStackOptions{WindowCycles: 2_048})
	camp, err := smtavf.NewFaultCampaign(cfg, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	prop := smtavf.NewPropagation(smtavf.PropagationOptions{})
	sim, err := smtavf.New(cfg,
		smtavf.WithBenchmarks("mcf", "gcc"),
		smtavf.WithTelemetry(col),
		smtavf.WithPipeTrace(rec),
		smtavf.WithCPIStack(stack),
		smtavf.WithFaultInjection(camp),
		smtavf.WithPropagation(prop))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(12_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(wins.ws) < 3 || rec.Len() == 0 || len(stack.Windows()) < 2 || len(res.Phases) < 2 {
		t.Fatalf("thin run: %d telemetry windows, %d records, %d stack windows, %d phases",
			len(wins.ws), rec.Len(), len(stack.Windows()), len(res.Phases))
	}

	h := resultDigest(res)
	h = mixJSON(t, h, wins.ws)
	h = mixJSON(t, h, rec.Records())
	h = mixJSON(t, h, stack.Windows())
	h = mixJSON(t, h, res.Phases)
	var strikes []smtavf.InjectStrike
	for _, s := range smtavf.Structs() {
		h = digest.Mix(h, math.Float64bits(camp.Estimate(s, res.Cycles)))
		strikes = append(strikes, camp.SampleStrikes(s, res.Cycles, 16)...)
	}
	return mixJSON(t, h, prop.Analyze(strikes).Traces)
}

// TestObserverGolden asserts that attaching the observers, sampling and
// rebasing them reproduces the pinned outputs bit for bit.
func TestObserverGolden(t *testing.T) {
	got := observerDigest(t)
	if os.Getenv("SMTAVF_WRITE_GOLDEN") != "" {
		fmt.Printf("observerGolden = %#016x\n", got)
		t.Skip("golden digest printed; paste over observerGolden")
	}
	if got != observerGolden {
		t.Errorf("observer digest %#016x, want %#016x — an observer's output changed", got, observerGolden)
	}
	if again := observerDigest(t); again != got {
		t.Errorf("same-process rerun diverges: %#016x vs %#016x", again, got)
	}
}

// cpistackChromeGolden is the FNV-64a hash of the CPI-stack observer's
// Chrome trace_event export on the pinned 2-thread run, recorded with the
// per-package Chrome writer the shared jsonlio encoder replaced.
const cpistackChromeGolden uint64 = 0xc9dbad82059e3eab

// TestCPIStackChromeGolden pins the bytes of cpistack's Chrome counter
// export on a real run. Regenerate like TestObserverGolden.
func TestCPIStackChromeGolden(t *testing.T) {
	cfg := smtavf.DefaultConfig(2)
	cfg.Seed = 1
	cfg.Warmup = 3_000
	stack := smtavf.NewCPIStack(smtavf.CPIStackOptions{WindowCycles: 2_048})
	sim, err := smtavf.New(cfg, smtavf.WithBenchmarks("mcf", "gcc"), smtavf.WithCPIStack(stack))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(12_000); err != nil {
		t.Fatal(err)
	}
	if len(stack.Windows()) < 2 {
		t.Fatalf("thin run: %d stack windows", len(stack.Windows()))
	}
	h := fnv.New64a()
	if err := stack.WriteChrome(h); err != nil {
		t.Fatal(err)
	}
	got := h.Sum64()
	if os.Getenv("SMTAVF_WRITE_GOLDEN") != "" {
		fmt.Printf("cpistackChromeGolden = %#016x\n", got)
		t.Skip("golden digest printed; paste over cpistackChromeGolden")
	}
	if got != cpistackChromeGolden {
		t.Errorf("cpistack Chrome export hash %#016x, want %#016x", got, cpistackChromeGolden)
	}
}
