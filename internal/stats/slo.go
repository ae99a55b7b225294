package stats

// SLOTracker scores a latency stream against a target: every recorded
// op either meets the target latency or burns error budget. The budget
// is a fraction (an SLO of "p99 under target" allows 1% of ops over it,
// so BudgetFrac = 0.01); ErrorBudgetRemaining hitting zero means the
// stream no longer meets its SLO. Like Histogram, the tracker is plain
// single-threaded state: concurrent drivers keep one per worker and
// Merge.
type SLOTracker struct {
	// TargetNs is the per-op latency target (the SLO's p99 bound).
	TargetNs int64
	// BudgetFrac is the fraction of ops allowed over target (0.01 for a
	// p99 SLO, 0.001 for p999).
	BudgetFrac float64

	total      uint64
	violations uint64
	hist       *Histogram
}

// NewSLOTracker returns a tracker for "budgetFrac of ops may exceed
// targetNs".
func NewSLOTracker(targetNs int64, budgetFrac float64) *SLOTracker {
	if budgetFrac <= 0 {
		budgetFrac = 0.01
	}
	return &SLOTracker{TargetNs: targetNs, BudgetFrac: budgetFrac, hist: NewHistogram()}
}

// Record scores one op latency.
func (s *SLOTracker) Record(latNs int64) {
	s.total++
	if latNs > s.TargetNs {
		s.violations++
	}
	s.hist.Record(latNs)
}

// Total returns the number of recorded ops.
func (s *SLOTracker) Total() uint64 { return s.total }

// Violations returns how many ops exceeded the target.
func (s *SLOTracker) Violations() uint64 { return s.violations }

// ViolationFrac returns the fraction of ops over target.
func (s *SLOTracker) ViolationFrac() float64 {
	if s.total == 0 {
		return 0
	}
	return float64(s.violations) / float64(s.total)
}

// ErrorBudgetRemaining returns the unburned share of the error budget in
// [0,1]: 1 with no violations, 0 when the violation fraction has reached
// (or passed) BudgetFrac.
func (s *SLOTracker) ErrorBudgetRemaining() float64 {
	rem := 1 - s.ViolationFrac()/s.BudgetFrac
	if rem < 0 {
		return 0
	}
	return rem
}

// Met reports whether the stream meets its SLO so far: the violation
// fraction is within budget. An empty tracker is trivially met.
func (s *SLOTracker) Met() bool { return s.ViolationFrac() <= s.BudgetFrac }

// P99 returns the observed p99 latency.
func (s *SLOTracker) P99() int64 { return s.hist.P99() }

// Hist returns the underlying latency histogram (shared, not a copy).
func (s *SLOTracker) Hist() *Histogram { return s.hist }

// Merge folds other's observations into s. The target/budget of s win;
// merging trackers with different targets merges their histograms but
// keeps each side's own violation accounting, so only merge like with
// like.
func (s *SLOTracker) Merge(other *SLOTracker) {
	s.total += other.total
	s.violations += other.violations
	s.hist.Merge(other.hist)
}
