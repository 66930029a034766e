package pipetrace

import (
	"cmp"
	"io"
	"slices"
	"testing"

	"smtavf/internal/avf"
	"smtavf/internal/rng"
)

// synthRecords builds n records shaped like a 4-thread recording: about
// three uops fetched per cycle, overlapping lifetimes, wrong-path uops
// squashed before dispatch or issue, loads and stores with LSQ spans, and
// retirement up to a few hundred cycles after fetch. Records come back in
// retirement order, as Recorder.Records returns them.
func synthRecords(n int) []Record {
	src := rng.New(42)
	ops := [...]string{"ialu", "load", "store", "fpalu", "branch"}
	recs := make([]Record, n)
	var seq [4]uint64
	for i := range recs {
		tid := int(src.Uint64n(4))
		fetch := 1000 + uint64(i)/3
		r := Record{
			V: SchemaVersion, TID: tid, GSeq: uint64(i), Seq: seq[tid],
			PC: 0x400000 + 4*src.Uint64n(4096), Op: ops[src.Uint64n(uint64(len(ops)))],
			Fate: avf.FateCommitted, ACE: true,
			Fetch: fetch, Dispatch: -1, Issue: -1, Writeback: -1,
		}
		seq[tid]++
		retire := fetch + 2 + src.Uint64n(8)
		switch src.Uint64n(8) {
		case 0: // wrong path, dropped in the front end
			r.Fate, r.ACE, r.WrongPath = avf.FateWrongPath, false, true
		case 1: // squashed while waiting in the IQ
			r.Fate, r.ACE = avf.FateSquashed, false
			r.Dispatch = int64(fetch + 4)
			retire = fetch + 5 + src.Uint64n(40)
			r.IQ = Span{fetch + 4, retire - fetch - 4}
			r.ROB = r.IQ
		default:
			d := fetch + 4
			iss := d + src.Uint64n(20)
			wb := iss + 1 + src.Uint64n(200)
			retire = wb + src.Uint64n(30)
			r.Dispatch, r.Issue, r.Writeback = int64(d), int64(iss), int64(wb)
			r.IQ = Span{d, iss - d}
			r.ROB = Span{d, retire - d}
			r.FU = Span{iss, 1}
			if r.Op == "load" || r.Op == "store" {
				r.LSQTag = Span{d, retire - d}
				r.LSQData = Span{wb, retire - wb}
			}
			if src.Uint64n(5) == 0 {
				r.Fate, r.ACE = avf.FateDead, false
			}
		}
		r.Retire = retire
		recs[i] = r
	}
	// Recorder order: by retire cycle, fetch order breaking ties.
	slices.SortFunc(recs, func(a, b Record) int {
		if c := cmp.Compare(a.Retire, b.Retire); c != 0 {
			return c
		}
		return cmp.Compare(a.GSeq, b.GSeq)
	})
	return recs
}

// TestWriteKanataAllocs pins the fixed-allocation contract of WriteKanata:
// the number of allocations per call does not depend on how many records
// it writes.
func TestWriteKanataAllocs(t *testing.T) {
	count := func(n int) float64 {
		recs := synthRecords(n)
		return testing.AllocsPerRun(5, func() {
			if err := WriteKanata(io.Discard, recs); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := count(1_000), count(20_000)
	if small != large || large > 32 {
		t.Fatalf("WriteKanata allocates %v times for 1k records and %v for 20k; want equal counts of at most 32",
			small, large)
	}
}

// BenchmarkPipetraceExport measures each exporter on one 65,536-record
// synthetic recording, the flight recorder's cap in the perfbench
// observed workload.
func BenchmarkPipetraceExport(b *testing.B) {
	recs := synthRecords(65536)
	for _, bc := range []struct {
		name  string
		write func(io.Writer, []Record) error
	}{
		{"Kanata", WriteKanata},
		{"Chrome", WriteChrome},
		{"JSONL", WriteJSONL},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bc.write(io.Discard, recs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestWriteKanataRejectsNegativeTID checks that a record with no valid
// hardware thread, as a hand-edited JSONL recording could carry, is
// reported as an error rather than written.
func TestWriteKanataRejectsNegativeTID(t *testing.T) {
	recs := synthRecords(8)
	recs[3].TID = -1
	if err := WriteKanata(io.Discard, recs); err == nil {
		t.Fatal("WriteKanata accepted a record with tid -1")
	}
}
