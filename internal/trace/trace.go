// Package trace records simulation events and exports them in the Chrome
// trace-event JSON format (chrome://tracing, Perfetto), giving the same
// visibility into fault/eviction interleavings that kernel developers get
// from ftrace on the real systems.
//
// Tracing is optional and zero-cost when disabled: a nil *Recorder
// records nothing.
package trace

import (
	"encoding/json"
	"io"
	"sort"
)

// Phase is the Chrome trace-event phase.
type Phase string

const (
	// PhaseComplete is a duration event ("X").
	PhaseComplete Phase = "X"
	// PhaseInstant is a point event ("i").
	PhaseInstant Phase = "i"
	// PhaseCounter is a counter sample ("C").
	PhaseCounter Phase = "C"
	// PhaseMetadata is a metadata record ("M"), e.g. process_name.
	PhaseMetadata Phase = "M"
)

// Event is one trace record. Times are virtual nanoseconds.
type Event struct {
	Name  string
	Cat   string
	Phase Phase
	TS    int64 // start, ns
	Dur   int64 // duration, ns (PhaseComplete only)
	PID   int   // process lane: the owning tenant id (see ProcessName)
	TID   int   // thread within the lane
	Args  map[string]any
}

// Lanes for PID. The core tags every fault/eviction event with the owning
// tenant's id, so chrome://tracing groups spans per tenant; a single-tenant
// system emits everything on lane 0 (== LaneApp, the pre-multi-tenant
// convention kept for tools that hardcode it).
const (
	LaneApp = iota
	LaneEviction
	LaneNet
)

// Recorder accumulates events. A nil Recorder ignores all calls.
type Recorder struct {
	events []Event
	limit  int
}

// New returns a recorder that keeps at most limit events (0 = 1<<20).
func New(limit int) *Recorder {
	if limit <= 0 {
		limit = 1 << 20
	}
	return &Recorder{limit: limit}
}

// Add appends an event (dropped silently past the limit or on nil r).
func (r *Recorder) Add(e Event) {
	if r == nil || len(r.events) >= r.limit {
		return
	}
	r.events = append(r.events, e)
}

// Span records a completed duration event.
func (r *Recorder) Span(name, cat string, pid, tid int, start, end int64, args map[string]any) {
	r.Add(Event{Name: name, Cat: cat, Phase: PhaseComplete,
		TS: start, Dur: end - start, PID: pid, TID: tid, Args: args})
}

// Instant records a point event.
func (r *Recorder) Instant(name, cat string, pid, tid int, ts int64) {
	r.Add(Event{Name: name, Cat: cat, Phase: PhaseInstant, TS: ts, PID: pid, TID: tid})
}

// ProcessName emits the Chrome metadata event that labels process lane
// pid in trace viewers. The core emits one per tenant at run start, so a
// multi-tenant trace groups each tenant's spans under its name.
func (r *Recorder) ProcessName(pid int, name string) {
	r.Add(Event{Name: "process_name", Phase: PhaseMetadata, PID: pid,
		Args: map[string]any{"name": name}})
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.events)
}

// chromeEvent is the wire format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteJSON exports the trace as a Chrome trace-event array, sorted by
// timestamp.
func (r *Recorder) WriteJSON(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, "[]")
		return err
	}
	evs := make([]Event, len(r.events))
	copy(evs, r.events)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].TS < evs[j].TS })
	out := make([]chromeEvent, len(evs))
	for i, e := range evs {
		out[i] = chromeEvent{
			Name: e.Name,
			Cat:  e.Cat,
			Ph:   string(e.Phase),
			TS:   float64(e.TS) / 1e3,
			Dur:  float64(e.Dur) / 1e3,
			PID:  e.PID,
			TID:  e.TID,
			Args: e.Args,
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
