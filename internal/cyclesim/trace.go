package cyclesim

import (
	"encoding/json"
	"io"
)

// TraceEvent is one schedule entry in the exported timeline.
type TraceEvent struct {
	Name    string  `json:"name"`
	Kind    string  `json:"kind"`
	Qubit   int     `json:"qubit"`
	Partner int     `json:"partner,omitempty"`
	StartNS float64 `json:"start_ns"`
	EndNS   float64 `json:"end_ns"`
}

// Trace is the exportable simulation timeline.
type Trace struct {
	TotalNS  float64            `json:"total_ns"`
	Units    map[string]int     `json:"units"`
	Activity map[string]float64 `json:"activity"`
	Events   []TraceEvent       `json:"events"`
}

// BuildTrace converts a Result into its exportable form.
func BuildTrace(r *Result) Trace {
	t := Trace{
		TotalNS:  r.TotalTime * 1e9,
		Units:    r.Units,
		Activity: map[string]float64{},
		Events:   make([]TraceEvent, 0, len(r.Ops)),
	}
	for _, class := range []string{"drive", "pulse", "readout"} {
		t.Activity[class] = r.ActivityFactor(class)
	}
	for _, op := range r.Ops {
		t.Events = append(t.Events, TraceEvent{
			Name:    op.Name,
			Kind:    op.Kind.String(),
			Qubit:   op.Qubit,
			Partner: op.Partner,
			StartNS: op.Start * 1e9,
			EndNS:   op.End * 1e9,
		})
	}
	return t
}

// WriteJSON streams the trace as indented JSON.
func (t Trace) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}
