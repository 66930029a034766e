package cpistack

import (
	"fmt"
	"io"

	"smtavf/internal/avf"
	"smtavf/internal/jsonlio"
)

// WriteChrome writes the windows as Chrome trace_event counter ("C")
// tracks, loadable by chrome://tracing and Perfetto: one "cpi/t<tid>"
// counter per thread whose series are the stack components (stacked by
// the viewer, so the track is the thread's CPI stack over time), and one
// "occupancy/<struct>" counter per tracked structure whose series are the
// fate bit-cycle splits. One simulated cycle maps to one microsecond,
// matching the pipetrace exporter, so a cpistack overlay lines up with a
// flight recording of the same run.
func (o *Observer) WriteChrome(w io.Writer) error {
	if o == nil {
		return nil
	}
	cw := jsonlio.NewChromeWriter(w)
	for tid := 0; tid < o.threads; tid++ {
		if err := cw.ProcessName(tid, fmt.Sprintf("hw thread %d", tid)); err != nil {
			return err
		}
	}

	for i := range o.wins {
		win := &o.wins[i]
		ts := o.base + uint64(i)*o.window
		for tid := 0; tid < o.threads; tid++ {
			args := make(map[string]uint64, NumComponents)
			for c := Component(0); c < NumComponents; c++ {
				args[c.String()] = win.stack[tid][c]
			}
			if err := cw.Event(jsonlio.TraceEvent{
				Name: fmt.Sprintf("cpi/t%d", tid), Cat: "cpistack", Ph: "C",
				Ts: ts, Pid: tid, Args: args,
			}); err != nil {
				return err
			}
		}
		for _, s := range OccupancyStructs() {
			args := make(map[string]uint64, avf.NumFates)
			for _, f := range avf.Fates() {
				args[f.String()] = win.occ[s][f]
			}
			if err := cw.Event(jsonlio.TraceEvent{
				Name: "occupancy/" + s.String(), Cat: "occupancy", Ph: "C",
				Ts: ts, Args: args,
			}); err != nil {
				return err
			}
		}
	}
	return cw.Close()
}
