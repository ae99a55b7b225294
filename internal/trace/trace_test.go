package trace

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Add(Event{Name: "x"})
	r.Span("a", "b", 0, 0, 0, 10, nil)
	r.Instant("i", "c", 0, 0, 5)
	r.ProcessName(0, "p")
	if r.Len() != 0 {
		t.Fatal("nil recorder recorded something")
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "[]" {
		t.Errorf("nil recorder JSON = %q", buf.String())
	}
}

func TestRecordAndExport(t *testing.T) {
	r := New(0)
	r.Span("fault", "fp", LaneApp, 3, 1000, 5000, map[string]any{"page": 42})
	r.Instant("kick", "ep", LaneEviction, 0, 1500)
	r.Span("evict-batch", "ep", LaneEviction, 1, 2000, 9000, nil)
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(evs) != 3 {
		t.Fatalf("exported %d events", len(evs))
	}
	// Sorted by timestamp; microsecond conversion.
	if evs[0]["name"] != "fault" || evs[0]["ts"].(float64) != 1.0 {
		t.Errorf("first event = %v", evs[0])
	}
	if evs[0]["dur"].(float64) != 4.0 {
		t.Errorf("duration = %v, want 4µs", evs[0]["dur"])
	}
	if evs[1]["name"] != "kick" {
		t.Errorf("order wrong: %v", evs[1])
	}
}

// TestProcessNameMetadata: tenant identity export — metadata events carry
// phase "M", the tenant id as PID, and the name in Args, so Chrome's
// trace viewer groups each tenant's spans under a named process lane.
func TestProcessNameMetadata(t *testing.T) {
	r := New(0)
	r.ProcessName(0, "tenant 0: zipf")
	r.ProcessName(1, "tenant 1: seqscan")
	r.Span("fault", "fp", 1, 3, 1000, 5000, nil)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	var meta []map[string]any
	for _, e := range evs {
		if e["ph"] == string(PhaseMetadata) {
			meta = append(meta, e)
		}
	}
	if len(meta) != 2 {
		t.Fatalf("exported %d metadata events, want 2", len(meta))
	}
	for i, e := range meta {
		if e["name"] != "process_name" {
			t.Errorf("metadata %d name = %v", i, e["name"])
		}
		if int(e["pid"].(float64)) != i {
			t.Errorf("metadata %d pid = %v, want %d", i, e["pid"], i)
		}
	}
	if args, ok := meta[1]["args"].(map[string]any); !ok || args["name"] != "tenant 1: seqscan" {
		t.Errorf("metadata args = %v", meta[1]["args"])
	}
	for _, e := range evs {
		if e["name"] == "fault" && int(e["pid"].(float64)) != 1 {
			t.Errorf("fault span pid = %v, want the owning tenant id 1", e["pid"])
		}
	}
}

func TestLimitDropsExcess(t *testing.T) {
	r := New(2)
	for i := 0; i < 10; i++ {
		r.Instant("e", "c", 0, 0, int64(i))
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d, want 2", r.Len())
	}
}
