package cpistack

import (
	"fmt"
	"io"
	"strings"

	"smtavf/internal/avf"
	"smtavf/internal/jsonlio"
)

// SchemaVersion is stamped into every exported Window's "v" field.
// Readers reject records newer than they understand.
const SchemaVersion = 1

// Window is one exported accounting window: the per-thread CPI stack for
// the window's cycles and the occupancy-by-fate bit-cycles of every
// tracked structure. Map keys are component/structure/fate names, so the
// JSON encoding is self-describing and (encoding/json sorts map keys)
// byte-deterministic.
type Window struct {
	V     int    `json:"v"`
	Index int    `json:"window"`
	Start uint64 `json:"start_cycle"`
	End   uint64 `json:"end_cycle"`
	// Stack maps component name -> per-thread cycles ([tid]).
	Stack map[string][]uint64 `json:"stack"`
	// Occupancy maps structure name -> fate name -> bit-cycles.
	Occupancy map[string]map[string]uint64 `json:"occupancy"`
}

// Windows snapshots every accounting window in order. The final window is
// clipped to the accounted span, so window sums equal the cumulative
// accessors exactly.
func (o *Observer) Windows() []Window {
	if o == nil {
		return nil
	}
	out := make([]Window, len(o.wins))
	for i := range o.wins {
		w := &o.wins[i]
		rec := Window{
			V:         SchemaVersion,
			Index:     i,
			Start:     o.base + uint64(i)*o.window,
			End:       o.base + uint64(i+1)*o.window,
			Stack:     make(map[string][]uint64, NumComponents),
			Occupancy: make(map[string]map[string]uint64, len(OccupancyStructs())),
		}
		if rec.End > o.max {
			rec.End = o.max
		}
		for c := Component(0); c < NumComponents; c++ {
			col := make([]uint64, o.threads)
			for tid := range w.stack {
				col[tid] = w.stack[tid][c]
			}
			rec.Stack[c.String()] = col
		}
		for _, s := range OccupancyStructs() {
			byFate := make(map[string]uint64, avf.NumFates)
			for _, f := range avf.Fates() {
				byFate[f.String()] = w.occ[s][f]
			}
			rec.Occupancy[s.String()] = byFate
		}
		out[i] = rec
	}
	return out
}

// WriteFile exports the windows to path, choosing the format from the
// extension (jsonlio.Ext): ".csv" writes the flat CSV table, ".json"
// writes Chrome trace_event counter tracks (load in chrome://tracing or
// Perfetto), and anything else writes versioned JSONL. A trailing ".gz"
// compresses any of them.
func (o *Observer) WriteFile(path string) error {
	if o == nil {
		return nil
	}
	switch jsonlio.Ext(path) {
	case ".csv":
		return jsonlio.EncodeFile(path, o.WriteCSV)
	case ".json":
		return jsonlio.EncodeFile(path, o.WriteChrome)
	default:
		return jsonlio.WriteFile(path, o.Windows())
	}
}

// ReadFile loads windows written as JSONL by WriteFile, rejecting records
// with a schema version newer than SchemaVersion.
func ReadFile(path string) ([]Window, error) {
	return jsonlio.ReadFile(path, func(w *Window) error {
		if w.V > SchemaVersion {
			return fmt.Errorf("cpistack: window schema v%d newer than supported v%d", w.V, SchemaVersion)
		}
		return nil
	})
}

// WriteCSV writes the windows as a flat table: one row per window, a
// cycles column per (thread, component), and a bit-cycles column per
// (structure, fate).
func (o *Observer) WriteCSV(w io.Writer) error {
	if o == nil {
		return nil
	}
	var b strings.Builder
	b.WriteString("window,start_cycle,end_cycle")
	for tid := 0; tid < o.threads; tid++ {
		for c := Component(0); c < NumComponents; c++ {
			fmt.Fprintf(&b, ",t%d.%s", tid, c)
		}
	}
	for _, s := range OccupancyStructs() {
		for _, f := range avf.Fates() {
			fmt.Fprintf(&b, ",%s.%s", s, f)
		}
	}
	b.WriteByte('\n')
	if _, err := io.WriteString(w, b.String()); err != nil {
		return err
	}
	for i := range o.wins {
		b.Reset()
		win := &o.wins[i]
		start := o.base + uint64(i)*o.window
		end := start + o.window
		if end > o.max {
			end = o.max
		}
		fmt.Fprintf(&b, "%d,%d,%d", i, start, end)
		for tid := 0; tid < o.threads; tid++ {
			for c := Component(0); c < NumComponents; c++ {
				fmt.Fprintf(&b, ",%d", win.stack[tid][c])
			}
		}
		for _, s := range OccupancyStructs() {
			for _, f := range avf.Fates() {
				fmt.Fprintf(&b, ",%d", win.occ[s][f])
			}
		}
		b.WriteByte('\n')
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}
