package obs

import (
	"fmt"
	"io"
	"sort"
	"time"

	"smtavf/internal/jsonlio"
)

// Span is one phase of one worker's life during a sharded run: which
// worker, which shard it was serving, which phase (sources, warmup, run,
// merge), and the wall-clock interval relative to the run's start. The
// gap between one span's End and the worker's next Start is a scheduling
// bubble — exactly what the Chrome trace view makes visible.
type Span struct {
	Worker int           `json:"worker"` // -1: the merge phase, outside the pool
	Shard  int           `json:"shard"`  // -1: not shard-specific (merge)
	Phase  string        `json:"phase"`
	Start  time.Duration `json:"start"`
	End    time.Duration `json:"end"`
}

// Seconds returns the span's duration in seconds.
func (s Span) Seconds() float64 { return (s.End - s.Start).Seconds() }

// WriteChromeSpans writes worker spans in the Chrome trace_event JSON
// object format, loadable by chrome://tracing and Perfetto: one process
// track per pool worker (plus a "merge" track), one complete ("X") slice
// per span, microsecond timestamps, through the shared jsonlio encoder.
func WriteChromeSpans(w io.Writer, spans []Span) error {
	ordered := append([]Span(nil), spans...)
	sort.SliceStable(ordered, func(i, j int) bool {
		if ordered[i].Worker != ordered[j].Worker {
			return ordered[i].Worker < ordered[j].Worker
		}
		return ordered[i].Start < ordered[j].Start
	})

	cw := jsonlio.NewChromeWriter(w)
	seen := map[int]bool{}
	for _, s := range ordered {
		if seen[s.Worker] {
			continue
		}
		seen[s.Worker] = true
		name := fmt.Sprintf("worker %d", s.Worker)
		if s.Worker < 0 {
			name = "merge"
		}
		if err := cw.ProcessName(chromePid(s.Worker), name); err != nil {
			return err
		}
	}
	for _, s := range ordered {
		ts := uint64(s.Start / time.Microsecond)
		dur := uint64((s.End - s.Start) / time.Microsecond)
		args := map[string]any{"shard": s.Shard}
		if err := cw.Event(jsonlio.TraceEvent{
			Name: s.Phase, Cat: "shard", Ph: "X",
			Ts: ts, Dur: &dur, Pid: chromePid(s.Worker), Args: args,
		}); err != nil {
			return err
		}
	}
	return cw.Close()
}

// chromePid maps a worker id to a trace pid: workers keep their index,
// the merge track (-1) lands after every worker.
func chromePid(worker int) int {
	if worker < 0 {
		return 1 << 20
	}
	return worker
}
