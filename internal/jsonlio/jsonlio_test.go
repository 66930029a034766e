package jsonlio

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"testing"
)

type rec struct {
	V    int    `json:"v"`
	Name string `json:"name"`
	N    uint64 `json:"n"`
}

func sample() []rec {
	return []rec{
		{V: 1, Name: "alpha", N: 7},
		{V: 1, Name: "beta", N: 0},
		{V: 1, Name: "gamma", N: 1 << 40},
	}
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteLines(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLines[rec](&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := sample()
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestFileRoundTripGzipAndPlain(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"out.jsonl", "out.jsonl.gz", "OUT.JSONL.GZ"} {
		path := filepath.Join(dir, name)
		if err := WriteFile(path, sample()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := ReadFile[rec](path, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != len(sample()) {
			t.Errorf("%s: read %d records, want %d", name, len(got), len(sample()))
		}
	}
}

func TestIsGzipPath(t *testing.T) {
	cases := map[string]bool{
		"a.jsonl":    false,
		"a.jsonl.gz": true,
		"a.CSV.GZ":   true,
		"a.gz.jsonl": false,
	}
	for path, want := range cases {
		if got := IsGzipPath(path); got != want {
			t.Errorf("IsGzipPath(%q) = %v, want %v", path, got, want)
		}
	}
}

func TestExt(t *testing.T) {
	cases := map[string]string{
		"run.csv":        ".csv",
		"run.CSV.gz":     ".csv",
		"run.json.gz":    ".json",
		"dir.d/run.KAN":  ".kan",
		"run.jsonl":      ".jsonl",
		"run":            "",
		"run.gz":         "",
		"run.gz.jsonl":   ".jsonl",
		"dir.csv/series": "",
	}
	for path, want := range cases {
		if got := Ext(path); got != want {
			t.Errorf("Ext(%q) = %q, want %q", path, got, want)
		}
	}
}

// TestEncodeFileClosesOnError: a failing encoder's error wins, and the
// gzip stream is still finished, so the partial output stays readable.
func TestEncodeFileClosesOnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "partial.jsonl.gz")
	boom := fmt.Errorf("boom")
	err := EncodeFile(path, func(w io.Writer) error {
		if err := WriteLines(w, sample()[:1]); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("EncodeFile error = %v, want %v", err, boom)
	}
	got, err := ReadFile[rec](path, nil)
	if err != nil || len(got) != 1 {
		t.Fatalf("partial gzip output: %d records (%v)", len(got), err)
	}
}

func TestChromeWriter(t *testing.T) {
	var buf bytes.Buffer
	cw := NewChromeWriter(&buf)
	dur := uint64(0)
	if err := cw.ProcessName(3, "hw thread 3"); err != nil {
		t.Fatal(err)
	}
	if err := cw.Event(TraceEvent{Name: "F", Cat: "uop", Ph: "X", Ts: 7, Dur: &dur, Pid: 3, Tid: 1}); err != nil {
		t.Fatal(err)
	}
	if err := cw.Event(TraceEvent{Name: "cpi/t0", Ph: "C", Ts: 9, Args: map[string]uint64{"base": 2}}); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	want := `{"displayTimeUnit": "ms",
"traceEvents": [
{"name":"process_name","ph":"M","ts":0,"pid":3,"tid":0,"args":{"name":"hw thread 3"}},
{"name":"F","cat":"uop","ph":"X","ts":7,"dur":0,"pid":3,"tid":1},
{"name":"cpi/t0","ph":"C","ts":9,"pid":0,"tid":0,"args":{"base":2}}
]}
`
	if got := buf.String(); got != want {
		t.Fatalf("trace:\n%s\nwant:\n%s", got, want)
	}

	buf.Reset()
	if err := NewChromeWriter(&buf).Close(); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "{\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n\n]}\n" {
		t.Fatalf("empty trace = %q", got)
	}
}

func TestCheckRejects(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteLines(&buf, []rec{{V: 1}, {V: 99}}); err != nil {
		t.Fatal(err)
	}
	_, err := ReadLines(&buf, func(r *rec) error {
		if r.V != 1 {
			return fmt.Errorf("schema v%d, want v1", r.V)
		}
		return nil
	})
	if err == nil {
		t.Fatal("version check did not reject a v99 record")
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile[rec](filepath.Join(t.TempDir(), "absent.jsonl"), nil); err == nil {
		t.Fatal("reading a missing file succeeded")
	}
}
