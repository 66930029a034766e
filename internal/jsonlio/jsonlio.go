// Package jsonlio centralizes the output plumbing shared by the files the
// simulator writes: telemetry windows, pipetrace flight recordings,
// CPI-stack series, crossval agreement reports and propagation traces.
// JSONL streams write one JSON object per line and stamp a schema version
// into every line's "v" field. Files opened here are gzip-aware on both
// ends (paths ending in ".gz" compress transparently), and a writer that
// offers several formats picks one by a single extension rule (Ext). The
// Chrome trace_event encoder (chrome.go) writes every trace, shard
// timelines included.
//
// The package exists because three packages grew three private copies of
// the same gzip writer, scanner loop, and version check; a fourth consumer
// (internal/propagation) made the extraction worthwhile. The helpers are
// deliberately small: open a possibly-compressed stream, encode/decode a
// record slice, and let the caller validate each record's version with a
// closure (packages differ on whether they reject any mismatch or only
// newer-than-supported versions).
package jsonlio

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// IsGzipPath reports whether path names a gzip-compressed stream (a ".gz"
// suffix, case-insensitive).
func IsGzipPath(path string) bool {
	return strings.HasSuffix(strings.ToLower(path), ".gz")
}

// Ext returns path's extension, lower-cased, after dropping a trailing
// ".gz": "run.CSV.gz" gives ".csv" and "run.gz" gives "". Every writer that
// picks a format from a file name switches on it.
func Ext(path string) string {
	return filepath.Ext(strings.TrimSuffix(strings.ToLower(path), ".gz"))
}

// OpenWriter creates path for writing, transparently wrapping the stream
// in gzip compression when the name ends in ".gz". Close flushes the
// compressor before closing the file.
func OpenWriter(path string) (io.WriteCloser, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if IsGzipPath(path) {
		return &gzipWriteCloser{gz: gzip.NewWriter(f), f: f}, nil
	}
	return f, nil
}

// AppendLine appends rec to path as one JSONL line, opening the file in
// append mode so concurrent writers interleave at line granularity — the
// run-ledger idiom. Gzip paths are rejected: a gzip stream cannot be
// appended to without corrupting the member that precedes it.
func AppendLine(path string, rec any) error {
	if IsGzipPath(path) {
		return fmt.Errorf("jsonlio: cannot append to gzip stream %q", path)
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(append(data, '\n'))
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// OpenReader opens path for reading, transparently decompressing when the
// name ends in ".gz". Close releases both the decompressor and the file.
func OpenReader(path string) (io.ReadCloser, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	if !IsGzipPath(path) {
		return f, nil
	}
	gz, err := gzip.NewReader(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &gzipReadCloser{gz: gz, f: f}, nil
}

// gzipWriteCloser couples a gzip compressor to its backing file so a
// single Close finishes both.
type gzipWriteCloser struct {
	gz *gzip.Writer
	f  *os.File
}

func (g *gzipWriteCloser) Write(p []byte) (int, error) { return g.gz.Write(p) }

func (g *gzipWriteCloser) Close() error {
	err := g.gz.Close()
	if cerr := g.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// gzipReadCloser couples a gzip decompressor to its backing file so a
// single Close releases both.
type gzipReadCloser struct {
	gz *gzip.Reader
	f  *os.File
}

func (g *gzipReadCloser) Read(p []byte) (int, error) { return g.gz.Read(p) }

func (g *gzipReadCloser) Close() error {
	err := g.gz.Close()
	if cerr := g.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteLines encodes recs as one JSON object per line.
func WriteLines[T any](w io.Writer, recs []T) error {
	enc := json.NewEncoder(w)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			return err
		}
	}
	return nil
}

// EncodeFile creates path (".gz" compresses), runs encode on it and
// closes the file, also when encode fails; the first error wins.
func EncodeFile(path string, encode func(io.Writer) error) error {
	w, err := OpenWriter(path)
	if err != nil {
		return err
	}
	if err := encode(w); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// WriteFile writes recs as JSONL to path (".gz" compresses).
func WriteFile[T any](path string, recs []T) error {
	return EncodeFile(path, func(w io.Writer) error { return WriteLines(w, recs) })
}

// ReadLines decodes a JSONL stream produced by WriteLines. check, when
// non-nil, validates each decoded record (typically its schema version)
// before it is appended; a check error aborts the read.
func ReadLines[T any](r io.Reader, check func(*T) error) ([]T, error) {
	dec := json.NewDecoder(r)
	var out []T
	for dec.More() {
		var rec T
		if err := dec.Decode(&rec); err != nil {
			return nil, err
		}
		if check != nil {
			if err := check(&rec); err != nil {
				return nil, err
			}
		}
		out = append(out, rec)
	}
	return out, nil
}

// ReadFile reads a JSONL file written by WriteFile, transparently
// decompressing ".gz" paths; check validates each record as in ReadLines.
func ReadFile[T any](path string, check func(*T) error) ([]T, error) {
	r, err := OpenReader(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return ReadLines(r, check)
}
