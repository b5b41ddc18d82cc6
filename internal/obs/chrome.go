package obs

import (
	"encoding/json"
	"io"
)

// Chrome trace-event export: the recorder renders as the JSON object
// format of the Trace Event spec, loadable in chrome://tracing and
// https://ui.perfetto.dev. Every registered track becomes one named
// thread (tid) of a single process; spans are complete ("X") events with
// microsecond timestamps, and superstep spans carry their I/O accounting
// in args.

// chromeEvent is one entry of traceEvents. Field order is fixed so the
// golden test can compare bytes.
type chromeEvent struct {
	Name string   `json:"name"`
	Cat  string   `json:"cat,omitempty"`
	Ph   string   `json:"ph"`
	Ts   float64  `json:"ts"`
	Dur  *float64 `json:"dur,omitempty"`
	Pid  int      `json:"pid"`
	Tid  int      `json:"tid"`
	Args any      `json:"args,omitempty"`
}

// chromeIOArgs renders SuperstepIO into event args.
type chromeIOArgs struct {
	Proc   int    `json:"proc"`
	Round  int    `json:"round"`
	VP     int    `json:"vp"`
	Label  string `json:"label"`
	CtxOps int64  `json:"ctxOps"`
	MsgOps int64  `json:"msgOps"`
	Blocks int64  `json:"blocks"`
}

type chromeName struct {
	Name string `json:"name"`
}

type chromeSort struct {
	SortIndex int `json:"sort_index"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace renders the recorded spans as Chrome trace-event JSON.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, `{"traceEvents":[],"displayTimeUnit":"ms"}`+"\n")
		return err
	}
	r.mu.Lock()
	tracks := append([]string(nil), r.tracks...)
	events := append([]event(nil), r.events...)
	gauges := append([]gauge(nil), r.gauges...)
	r.mu.Unlock()

	out := chromeTrace{
		TraceEvents:     make([]chromeEvent, 0, len(events)+2*len(tracks)+1),
		DisplayTimeUnit: "ms",
	}
	out.TraceEvents = append(out.TraceEvents, chromeEvent{
		Name: "process_name", Ph: "M", Args: chromeName{Name: "emcgm"},
	})
	for tid, name := range tracks {
		out.TraceEvents = append(out.TraceEvents,
			chromeEvent{Name: "thread_name", Ph: "M", Tid: tid, Args: chromeName{Name: name}},
			chromeEvent{Name: "thread_sort_index", Ph: "M", Tid: tid, Args: chromeSort{SortIndex: tid}},
		)
	}
	for _, e := range events {
		dur := float64(e.dur.Nanoseconds()) / 1e3
		ce := chromeEvent{
			Name: e.name,
			Cat:  e.cat,
			Ph:   "X",
			Ts:   float64(e.ts.Nanoseconds()) / 1e3,
			Dur:  &dur,
			Tid:  int(e.track),
		}
		if e.io != nil {
			ce.Args = chromeIOArgs{
				Proc: e.io.Proc, Round: e.io.Round, VP: e.io.VP, Label: e.io.Label,
				CtxOps: e.io.CtxOps, MsgOps: e.io.MsgOps, Blocks: e.io.Blocks,
			}
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	// Registered gauges (pdm op/syscall counters and friends) render as
	// Chrome counter ("C") events sampled once at export time, stamped at
	// the end of the recorded interval so the counter track shows the
	// run's final totals alongside the spans.
	end := r.now()
	for _, g := range gauges {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: g.name, Cat: "counter", Ph: "C",
			Ts:   float64(end.Nanoseconds()) / 1e3,
			Args: map[string]int64{"value": g.f()},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
