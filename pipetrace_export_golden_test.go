// Byte-identity contract of the flight-recorder exporters.
//
// testdata/golden.kanata in internal/pipetrace pins four hand-built uops,
// too few to exercise the tie order among hundreds of events that share a
// cycle. This test records one real 4-thread run and pins the FNV-64a hash
// of each export format's bytes. The digests were recorded with the
// reflect-sorted, fmt-formatted exporters; any rewrite of an exporter must
// reproduce them exactly.
//
// To regenerate after an INTENTIONAL change to an export format, run:
//
//	SMTAVF_WRITE_GOLDEN=1 go test -run TestPipetraceExportGolden -v .
//
// and paste the printed values over exportGolden.
package smtavf_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"testing"

	"smtavf"
	"smtavf/internal/pipetrace"
)

// exportGolden is the FNV-64a hash of each format's export of the pinned
// recording.
var exportGolden = map[string]uint64{
	"kanata": 0x4d722ae88f43fdb4,
	"chrome": 0x3ed352a7f2fac3e9,
	"jsonl":  0x06a5d28ede9eb5d9,
}

// exportRecording runs the pinned workload with a flight recorder attached
// and returns the retained records.
func exportRecording(t *testing.T) []pipetrace.Record {
	t.Helper()
	cfg := smtavf.DefaultConfig(4)
	cfg.Seed = 5
	cfg.Warmup = 2_000
	rec := smtavf.NewPipeTrace(smtavf.PipeTraceOptions{Cap: 65536})
	sim, err := smtavf.New(cfg,
		smtavf.WithBenchmarks("gcc", "mcf", "vpr", "perlbmk"),
		smtavf.WithPipeTrace(rec))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(20_000); err != nil {
		t.Fatal(err)
	}
	if rec.Len() < 10_000 || rec.Dropped() != 0 {
		t.Fatalf("recording holds %d records (%d dropped), want a full capture of at least 10k",
			rec.Len(), rec.Dropped())
	}
	return rec.Records()
}

// TestPipetraceExportGolden asserts that every exporter reproduces its
// pinned bytes on a recording dense with same-cycle events.
func TestPipetraceExportGolden(t *testing.T) {
	recs := exportRecording(t)
	writers := []struct {
		name  string
		write func(io.Writer, []pipetrace.Record) error
	}{
		{"kanata", pipetrace.WriteKanata},
		{"chrome", pipetrace.WriteChrome},
		{"jsonl", pipetrace.WriteJSONL},
	}
	write := os.Getenv("SMTAVF_WRITE_GOLDEN") != ""
	for _, w := range writers {
		var buf bytes.Buffer
		if err := w.write(&buf, recs); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		h := fnv.New64a()
		h.Write(buf.Bytes())
		got := h.Sum64()
		if write {
			fmt.Printf("\t%q: %#016x, // %d bytes\n", w.name, got, buf.Len())
			continue
		}
		if want := exportGolden[w.name]; got != want {
			t.Errorf("%s export hash %#016x, want %#016x — the %s bytes changed",
				w.name, got, want, w.name)
		}
	}
	if write {
		t.Skip("export digests printed; paste over exportGolden")
	}
}
