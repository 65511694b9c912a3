package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// This file exports a recorded event stream in the Chrome trace-event
// JSON format (chrome://tracing, Perfetto), so a search can be eyeballed
// on a timeline: candidate-II attempts render as nested duration slices,
// everything else as instant events inside them. Timestamps are the
// events' logical sequence numbers (microseconds on the viewer's axis),
// never wall clock, so the artifact for a fixed seed is byte-identical
// across runs — CI diffs two exports to pin that.

// Meta labels one exported trace.
type Meta struct {
	// Loop, Machine and Backend identify the compilation.
	Loop    string
	Machine string
	Backend string
	// II is the II of the schedule the compilation returned, which the
	// events alone do not tell: a search that finds no fitting schedule
	// returns its least overflowing one, not its last.
	II int
	// MIIWhy says why the search started above max(ResMII, RecMII)
	// (sched.MII.Explain); empty when it did not.
	MIIWhy string
}

// chromeEvent is one trace-event row. Field order is fixed by the
// struct, and args maps marshal with sorted keys, so the export is
// deterministic in the event stream.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    int64          `json:"ts"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromeFile is the top-level trace-event container.
type chromeFile struct {
	TraceEvents []chromeEvent  `json:"traceEvents"`
	DisplayUnit string         `json:"displayTimeUnit"`
	Metadata    map[string]any `json:"metadata,omitempty"`
}

// WriteChrome renders the event stream as Chrome trace-event JSON. II
// attempts become B/E duration slices named "II=<n>"; every other kind
// becomes a thread-scoped instant event carrying its payload in args.
func WriteChrome(w io.Writer, meta Meta, events []Event) error {
	out := chromeFile{
		TraceEvents: make([]chromeEvent, 0, len(events)+2),
		DisplayUnit: "ms",
		Metadata: map[string]any{
			"loop":    meta.Loop,
			"machine": meta.Machine,
			"backend": meta.Backend,
		},
	}
	for i := range events {
		e := &events[i]
		ce := chromeEvent{TS: e.Seq, PID: 1, TID: 1}
		switch e.Kind {
		case KindIIStart:
			ce.Name = fmt.Sprintf("II=%d", e.II)
			ce.Phase = "B"
			ce.Args = map[string]any{"ii": int(e.II)}
			if e.Arg > 0 {
				ce.Args["mii"] = e.Arg
			}
		case KindIIEnd:
			ce.Name = fmt.Sprintf("II=%d", e.II)
			ce.Phase = "E"
			ce.Args = map[string]any{"completed": e.Arg == 1, "returned": e.Returned}
			switch e.Label {
			case "":
				ce.Args["excess"] = e.Aux
			case VerdictDoomed:
				ce.Args["verdict"], ce.Args["bound"] = e.Label, e.Aux
			default:
				ce.Args["verdict"], ce.Args["conflicts"] = e.Label, e.Aux
			}
		default:
			ce.Name = e.Kind.String()
			ce.Phase = "i"
			ce.Scope = "t"
			ce.Args = instantArgs(e)
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(&out)
}

// instantArgs builds the args payload for a non-span event, including
// only the fields the kind actually set (sentinel -1 fields are
// omitted, so placement-shaped kinds stay compact).
func instantArgs(e *Event) map[string]any {
	args := map[string]any{"ii": int(e.II)}
	if e.Op != -1 {
		args["op"] = int(e.Op)
	}
	if e.Cluster != -1 {
		args["cluster"] = int(e.Cluster)
	}
	if e.Cycle != -1 {
		args["cycle"] = int(e.Cycle)
	}
	if e.Reg != -1 {
		args["reg"] = int(e.Reg)
	}
	if e.Label != "" {
		args["label"] = e.Label
	}
	switch e.Kind {
	case KindWindowMiss:
		args["earliest"] = args["cycle"]
		delete(args, "cycle")
		args["latest"] = e.Arg
	case KindVictim:
		args["length"] = e.Arg
	case KindSpill:
		args["stores"] = e.Arg
		args["reloads"] = e.Aux
	case KindCompact:
		args["open"] = e.Arg == 1
	case KindCacheHit, KindCacheMiss:
		args["count"] = e.Arg
	}
	return args
}
