package smtavf_test

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smtavf"
	"smtavf/internal/telemetry"
)

// sniffFormat names an output's format from its first bytes.
func sniffFormat(b []byte) string {
	switch {
	case bytes.HasPrefix(b, []byte(`{"displayTimeUnit"`)):
		return "chrome"
	case bytes.HasPrefix(b, []byte("Kanata\t")):
		return "kanata"
	case bytes.HasPrefix(b, []byte(`{"v":`)):
		return "jsonl"
	case bytes.HasPrefix(b, []byte("v,window,")), bytes.HasPrefix(b, []byte("window,start_cycle,")):
		return "csv"
	}
	return "unknown"
}

// readOutput returns path's bytes, decompressed when it is gzip.
func readOutput(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(path, ".gz") {
		return raw
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("%s is not gzip: %v", path, err)
	}
	out, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestOutputExtensionRule checks every file writer that picks its format
// from the path against the one documented rule: lower-case the
// extension, drop a trailing ".gz" (which compresses), then map the rest.
func TestOutputExtensionRule(t *testing.T) {
	cfg := smtavf.DefaultConfig(2)
	cfg.Seed = 1
	rec := smtavf.NewPipeTrace(smtavf.PipeTraceOptions{Cap: 256})
	stack := smtavf.NewCPIStack(smtavf.CPIStackOptions{WindowCycles: 2_048})
	sim, err := smtavf.New(cfg, smtavf.WithBenchmarks("mcf", "gcc"),
		smtavf.WithPipeTrace(rec), smtavf.WithCPIStack(stack))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(4_000); err != nil {
		t.Fatal(err)
	}

	writers := map[string]func(path string) error{
		"telemetry": func(path string) error {
			e, err := telemetry.Create(path)
			if err != nil {
				return err
			}
			if err := e.Export(telemetry.Window{V: telemetry.SchemaVersion, EndCycle: 10}); err != nil {
				e.Close()
				return err
			}
			return e.Close()
		},
		"pipetrace": rec.WriteFile,
		"cpistack":  stack.WriteFile,
	}
	// want maps each extension to the format of telemetry, pipetrace and
	// cpistack, in that order.
	want := []struct {
		ext                    string
		telemetry, pipe, stack string
	}{
		{".csv", "csv", "jsonl", "csv"},
		{".json", "jsonl", "chrome", "chrome"},
		{".kanata", "jsonl", "kanata", "jsonl"},
		{".kan", "jsonl", "kanata", "jsonl"},
		{".jsonl", "jsonl", "jsonl", "jsonl"},
		{"", "jsonl", "jsonl", "jsonl"},
		{".CSV", "csv", "jsonl", "csv"},
	}
	dir := t.TempDir()
	for _, w := range want {
		for _, gz := range []string{"", ".gz"} {
			for name, format := range map[string]string{
				"telemetry": w.telemetry, "pipetrace": w.pipe, "cpistack": w.stack,
			} {
				path := filepath.Join(dir, name+"-out"+w.ext+gz)
				if err := writers[name](path); err != nil {
					t.Fatalf("%s %s: %v", name, path, err)
				}
				if got := sniffFormat(readOutput(t, path)); got != format {
					t.Errorf("%s writes %q as %s, want %s", name, filepath.Base(path), got, format)
				}
			}
		}
	}
}

// metricsFamiliesGolden is the FNV-64a hash of the "# TYPE" and "# HELP"
// lines /debug/metrics serves for a run that publishes telemetry, inject,
// propagation and CPI-stack metrics, recorded while the collector still
// mirrored them into its own counter and gauge maps.
const metricsFamiliesGolden uint64 = 0x1e54b8eb3d50cd22

// TestMetricsFamiliesGolden pins the names, types, help strings and order
// of the OpenMetrics families the simulator's publishers register.
// Regenerate like TestObserverGolden.
func TestMetricsFamiliesGolden(t *testing.T) {
	cfg := smtavf.DefaultConfig(2)
	cfg.Seed = 1
	col := smtavf.NewTelemetry(smtavf.TelemetryOptions{WindowCycles: 2_000})
	camp, err := smtavf.NewFaultCampaign(cfg, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	camp.PublishTelemetry(col)
	prop := smtavf.NewPropagation(smtavf.PropagationOptions{})
	prop.PublishTelemetry(col)
	stack := smtavf.NewCPIStack(smtavf.CPIStackOptions{WindowCycles: 2_048})
	stack.PublishTelemetry(col)
	sim, err := smtavf.New(cfg, smtavf.WithBenchmarks("mcf", "gcc"),
		smtavf.WithTelemetry(col), smtavf.WithFaultInjection(camp),
		smtavf.WithPropagation(prop), smtavf.WithCPIStack(stack))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(4_000); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := col.Registry().WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	var meta []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "# TYPE ") || strings.HasPrefix(line, "# HELP ") {
			meta = append(meta, line)
		}
	}
	h := fnv.New64a()
	h.Write([]byte(strings.Join(meta, "\n")))
	got := h.Sum64()
	if os.Getenv("SMTAVF_WRITE_GOLDEN") != "" {
		fmt.Printf("metricsFamiliesGolden = %#016x\n", got)
		t.Skip("golden digest printed; paste over metricsFamiliesGolden")
	}
	if got != metricsFamiliesGolden {
		t.Errorf("metric families hash %#016x, want %#016x; families:\n%s",
			got, metricsFamiliesGolden, strings.Join(meta, "\n"))
	}
}
