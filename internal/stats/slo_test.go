package stats

import (
	"math"
	"testing"
)

func TestSLOTrackerBudget(t *testing.T) {
	s := NewSLOTracker(1000, 0.01) // p99 under 1µs
	for i := 0; i < 990; i++ {
		s.Record(500)
	}
	for i := 0; i < 10; i++ {
		s.Record(2000)
	}
	if got := s.Total(); got != 1000 {
		t.Fatalf("total %d", got)
	}
	if got := s.Violations(); got != 10 {
		t.Fatalf("violations %d, want 10", got)
	}
	if f := s.ViolationFrac(); math.Abs(f-0.01) > 1e-9 {
		t.Fatalf("violation frac %v", f)
	}
	// Exactly at budget: met, zero budget remaining.
	if !s.Met() {
		t.Fatal("at-budget stream reported as missing SLO")
	}
	if rem := s.ErrorBudgetRemaining(); rem != 0 {
		t.Fatalf("budget remaining %v at exactly-spent budget", rem)
	}
	// One more violation tips it over.
	s.Record(5000)
	if s.Met() {
		t.Fatal("over-budget stream reported as meeting SLO")
	}
	if rem := s.ErrorBudgetRemaining(); rem != 0 {
		t.Fatalf("budget remaining %v when over budget", rem)
	}
}

func TestSLOTrackerBudgetRemaining(t *testing.T) {
	s := NewSLOTracker(1000, 0.01)
	for i := 0; i < 1000; i++ {
		s.Record(10)
	}
	if rem := s.ErrorBudgetRemaining(); rem != 1 {
		t.Fatalf("clean stream budget remaining %v, want 1", rem)
	}
	// 5 violations in 1000 ops burns half a 1% budget... it's 0.5% of
	// ops, i.e. half the budget.
	for i := 0; i < 5; i++ {
		s.Record(9999)
	}
	rem := s.ErrorBudgetRemaining()
	want := 1 - (5.0/1005.0)/0.01
	if math.Abs(rem-want) > 1e-9 {
		t.Fatalf("budget remaining %v, want %v", rem, want)
	}
}

func TestSLOTrackerMerge(t *testing.T) {
	a := NewSLOTracker(1000, 0.01)
	b := NewSLOTracker(1000, 0.01)
	for i := 0; i < 100; i++ {
		a.Record(100)
		b.Record(100)
	}
	b.Record(4000)
	a.Merge(b)
	if a.Total() != 201 || a.Violations() != 1 {
		t.Fatalf("merged total=%d violations=%d", a.Total(), a.Violations())
	}
	if a.Hist().Count() != 201 {
		t.Fatalf("merged hist count %d", a.Hist().Count())
	}
	if a.P99() < 100 {
		t.Fatalf("merged p99 %d", a.P99())
	}
}

func TestSLOTrackerEmpty(t *testing.T) {
	s := NewSLOTracker(1000, 0.01)
	if !s.Met() || s.ErrorBudgetRemaining() != 1 || s.ViolationFrac() != 0 {
		t.Fatal("empty tracker must be trivially within SLO")
	}
}
