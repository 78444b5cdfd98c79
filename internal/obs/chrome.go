package obs

import (
	"encoding/json"
	"io"
	"strconv"
)

// Chrome trace_event export. The output is the JSON Object Format of the
// Trace Event specification — a {"traceEvents": [...]} document — which
// both chrome://tracing and Perfetto's UI open directly. Every lane
// becomes one timeline track (a "thread" of the single engine
// "process"), so a pipelined chain renders as worker-slot lanes whose
// reduce spans of cycle k visibly overlap the map spans of cycle k+1.

// chromeEvent is one trace_event entry. Timestamps and durations are in
// microseconds per the spec.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

const enginePID = 1

// WriteChromeTrace renders the snapshot as a Chrome trace_event JSON
// document on w. Nil snapshots (disabled tracer) write an empty trace.
func WriteChromeTrace(w io.Writer, s *Snapshot) error {
	trace := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}
	if s != nil {
		trace.TraceEvents = make([]chromeEvent, 0, len(s.Spans)+len(s.Lanes)+1)
		trace.TraceEvents = append(trace.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", PID: enginePID,
			Args: map[string]string{"name": "mr-engine"},
		})
		for _, l := range s.Lanes {
			trace.TraceEvents = append(trace.TraceEvents, chromeEvent{
				Name: "thread_name", Ph: "M", PID: enginePID, TID: l.ID,
				Args: map[string]string{"name": laneName(l.ID)},
			})
		}
		for _, sp := range s.Spans {
			ev := chromeEvent{
				Name: sp.Name,
				Cat:  sp.Cat,
				Ph:   "X",
				TS:   float64(sp.Start.Nanoseconds()) / 1e3,
				Dur:  float64(sp.Dur.Nanoseconds()) / 1e3,
				PID:  enginePID,
				TID:  sp.Lane,
			}
			if sp.Dur == 0 {
				// Instantaneous events (barriers) render as instants.
				ev.Ph = "i"
				ev.Dur = 0
			}
			if len(sp.Args) > 0 {
				ev.Args = make(map[string]string, len(sp.Args))
				for _, a := range sp.Args {
					ev.Args[a.Key] = a.Val
				}
			}
			trace.TraceEvents = append(trace.TraceEvents, ev)
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(trace)
}

// laneName renders the stable track label for a lane id, zero-padded so
// tracks sort numerically in the viewer.
func laneName(id int) string {
	s := strconv.Itoa(id)
	if len(s) < 2 {
		s = "0" + s
	}
	return "lane-" + s
}
