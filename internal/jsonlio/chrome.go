package jsonlio

import (
	"bufio"
	"encoding/json"
	"io"
)

// TraceEvent is one Chrome trace_event object. Field order is the JSON
// output order (encoding/json emits struct fields in declaration order),
// which the golden tests pin. Dur is a pointer so complete ("X") slices
// always carry it, even when zero, and other phases omit it.
type TraceEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat,omitempty"`
	Ph   string  `json:"ph"`
	Ts   uint64  `json:"ts"`
	Dur  *uint64 `json:"dur,omitempty"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	Args any     `json:"args,omitempty"`
}

// ChromeWriter streams a Chrome trace_event JSON object, loadable by
// chrome://tracing and Perfetto: the header, one event per line joined by
// ",\n", and the closing bracket. Every trace the simulator exports
// (pipetrace, cpistack, shard timelines) goes through it, so all of them
// share one layout and merge cleanly in a viewer.
type ChromeWriter struct {
	bw    *bufio.Writer
	first bool
}

// NewChromeWriter writes the trace header to w and returns the writer.
func NewChromeWriter(w io.Writer) *ChromeWriter {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n")
	return &ChromeWriter{bw: bw, first: true}
}

// Event writes one trace event.
func (c *ChromeWriter) Event(e TraceEvent) error {
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	if !c.first {
		c.bw.WriteString(",\n")
	}
	c.first = false
	_, err = c.bw.Write(data)
	return err
}

// ProcessName writes the "process_name" metadata event that labels the
// track of pid in the viewer.
func (c *ChromeWriter) ProcessName(pid int, name string) error {
	return c.Event(TraceEvent{
		Name: "process_name", Ph: "M", Pid: pid,
		Args: map[string]string{"name": name},
	})
}

// Close writes the closing bracket and flushes; it does not close the
// underlying writer.
func (c *ChromeWriter) Close() error {
	c.bw.WriteString("\n]}\n")
	return c.bw.Flush()
}
