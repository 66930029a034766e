package pipetrace

import (
	"fmt"
	"io"

	"smtavf/internal/jsonlio"
)

// WriteJSONL writes one Record as one JSON object per line, in retirement
// order — the compact machine-readable export, ready for jq. Every line
// carries the schema version ("v").
func WriteJSONL(w io.Writer, recs []Record) error {
	return jsonlio.WriteLines(w, recs)
}

// ReadJSONL decodes a JSONL recording produced by WriteJSONL; it rejects
// records from a different schema version.
func ReadJSONL(r io.Reader) ([]Record, error) {
	return jsonlio.ReadLines(r, func(rec *Record) error {
		if rec.V != SchemaVersion {
			return fmt.Errorf("pipetrace: record schema v%d, this build reads v%d", rec.V, SchemaVersion)
		}
		return nil
	})
}

// Format names a flight-recording export format.
type Format string

// Export formats.
const (
	FormatKanata Format = "kanata"
	FormatChrome Format = "chrome"
	FormatJSONL  Format = "jsonl"
)

// FormatForPath picks the export format from a file name (jsonlio.Ext):
// ".kanata" (or ".kan") selects Kanata, ".json" Chrome trace_event,
// anything else JSONL. A trailing ".gz" compresses the file.
func FormatForPath(path string) Format {
	switch jsonlio.Ext(path) {
	case ".kanata", ".kan":
		return FormatKanata
	case ".json":
		return FormatChrome
	default:
		return FormatJSONL
	}
}

// Write writes the records in the given format.
func Write(w io.Writer, f Format, recs []Record) error {
	switch f {
	case FormatKanata:
		return WriteKanata(w, recs)
	case FormatChrome:
		return WriteChrome(w, recs)
	case FormatJSONL:
		return WriteJSONL(w, recs)
	}
	return fmt.Errorf("pipetrace: unknown format %q", f)
}

// WriteFile exports the retained records to path in the format its
// extension names (FormatForPath); a ".gz" suffix gzip-compresses the
// output — flight recordings are large.
func (r *Recorder) WriteFile(path string) error {
	f := FormatForPath(path)
	return jsonlio.EncodeFile(path, func(w io.Writer) error { return Write(w, f, r.Records()) })
}
