package core

import (
	"testing"

	"mage/internal/faultinject"
	"mage/internal/sim"
)

// faultedConfig returns a small MageLib system with the given plan.
func faultedConfig(t *testing.T, plan *faultinject.Plan) Config {
	t.Helper()
	cfg := smallPreset(t, "magelib", 4)
	cfg.FaultPlan = plan
	return cfg
}

func faultedStreams(threads, perThread int, wss uint64) []AccessStream {
	streams := make([]AccessStream, threads)
	for i := range streams {
		streams[i] = randStream(int64(100+i), perThread, wss, 200, 0.3)
	}
	return streams
}

// TestFaultedRunCompletesWithRetries: under a per-op failure rate the
// workload still finishes, and the retry layer's counters show it
// worked for the result.
func TestFaultedRunCompletesWithRetries(t *testing.T) {
	cfg := faultedConfig(t, &faultinject.Plan{
		Seed:          faultinject.DeriveSeed(7, "core", "retries"),
		ReadFailProb:  0.05,
		WriteFailProb: 0.05,
		SpikeProb:     0.02,
		SpikeMin:      sim.Microsecond,
		SpikeMax:      20 * sim.Microsecond,
	})
	node, tn := mustNode(t, cfg)
	tn.Prepopulate(int(cfg.TotalPages) / 2)
	node.SpawnEvictors()
	res := node.Run(faultedStreams(4, 2000, cfg.TotalPages))
	if res.TotalAccesses() != 4*2000 {
		t.Fatalf("accesses = %d, want %d", res.TotalAccesses(), 4*2000)
	}
	m := res.Metrics
	if m.FaultRetries == 0 {
		t.Error("no fault-path retries at 5% failure rate")
	}
	if m.InjReadNacks == 0 {
		t.Error("injector recorded no read nacks")
	}
	if m.EvictRetries == 0 && m.InjWriteNacks > 0 {
		t.Error("writes were nacked but never retried")
	}
	if m.RetryWaits == 0 || m.RetryWaitNs <= 0 {
		t.Errorf("backoff sleeps not recorded: n=%d ns=%d", m.RetryWaits, m.RetryWaitNs)
	}
}

// TestFaultedRunSurvivesOutage: a mid-run outage window forces timeouts,
// give-ups, and degraded-mode time, and the run still completes every
// access.
func TestFaultedRunSurvivesOutage(t *testing.T) {
	cfg := faultedConfig(t, &faultinject.Plan{
		Seed:    faultinject.DeriveSeed(7, "core", "outage"),
		Outages: faultinject.PeriodicOutages(2*sim.Millisecond, 4*sim.Millisecond, sim.Millisecond, 3),
	})
	node, tn := mustNode(t, cfg)
	tn.Prepopulate(int(cfg.TotalPages) / 2)
	node.SpawnEvictors()
	res := node.Run(faultedStreams(4, 3000, cfg.TotalPages))
	if res.TotalAccesses() != 4*3000 {
		t.Fatalf("accesses = %d, want %d", res.TotalAccesses(), 4*3000)
	}
	m := res.Metrics
	if m.FaultTimeouts == 0 {
		t.Error("no fault-path timeouts across three outage windows")
	}
	if m.FaultGiveUps == 0 {
		t.Error("no give-ups: MaxAttempts=2 should exhaust during a 1ms outage")
	}
	if m.DegradedNs <= 0 || m.DegradedSpans == 0 {
		t.Errorf("degraded mode never engaged: ns=%d spans=%d", m.DegradedNs, m.DegradedSpans)
	}
	// The workload runs ~14ms+ with 3ms of scheduled downtime: degraded
	// time must stay within the same order, not explode past makespan.
	if m.DegradedNs > int64(res.Makespan) {
		t.Errorf("degraded ns %d exceeds makespan %v", m.DegradedNs, res.Makespan)
	}
}

// TestFaultedRunDeterministic: same plan, same seed, same streams →
// identical makespan and identical fault/retry tallies.
func TestFaultedRunDeterministic(t *testing.T) {
	run := func() (sim.Time, Metrics) {
		cfg := faultedConfig(t, &faultinject.Plan{
			Seed:          faultinject.DeriveSeed(7, "core", "det"),
			ReadFailProb:  0.08,
			WriteFailProb: 0.08,
			SpikeProb:     0.05,
			SpikeMin:      sim.Microsecond,
			SpikeMax:      10 * sim.Microsecond,
			Outages:       faultinject.PeriodicOutages(3*sim.Millisecond, 6*sim.Millisecond, 500*sim.Microsecond, 2),
		})
		node, tn := mustNode(t, cfg)
		tn.Prepopulate(int(cfg.TotalPages) / 2)
		node.SpawnEvictors()
		res := node.Run(faultedStreams(4, 2000, cfg.TotalPages))
		return res.Makespan, res.Metrics
	}
	mk1, m1 := run()
	mk2, m2 := run()
	if mk1 != mk2 {
		t.Fatalf("makespan diverged: %v vs %v", mk1, mk2)
	}
	if m1.FaultRetries != m2.FaultRetries || m1.FaultTimeouts != m2.FaultTimeouts ||
		m1.FaultGiveUps != m2.FaultGiveUps || m1.EvictRetries != m2.EvictRetries ||
		m1.DegradedNs != m2.DegradedNs || m1.InjReadNacks != m2.InjReadNacks {
		t.Errorf("fault tallies diverged:\n%+v\n%+v", m1, m2)
	}
}

// TestNoPlanLeavesMetricsZero: without a FaultPlan the robustness
// metrics must all be zero and no injector is attached — the regression
// guard for the nil-injector fast paths.
func TestNoPlanLeavesMetricsZero(t *testing.T) {
	cfg := smallPreset(t, "magelib", 4)
	node, tn := mustNode(t, cfg)
	if node.FaultInj != nil || node.NIC.FaultInjector() != nil {
		t.Fatal("injector attached without a plan")
	}
	tn.Prepopulate(int(cfg.TotalPages) / 2)
	node.SpawnEvictors()
	res := node.Run(faultedStreams(4, 1500, cfg.TotalPages))
	m := res.Metrics
	if m.FaultRetries != 0 || m.FaultTimeouts != 0 || m.FaultGiveUps != 0 ||
		m.EvictRetries != 0 || m.EvictTimeouts != 0 || m.RetryWaits != 0 ||
		m.DegradedNs != 0 || m.DegradedSpans != 0 ||
		m.InjReadNacks != 0 || m.InjWriteNacks != 0 || m.InjTimeouts != 0 || m.InjSpikes != 0 {
		t.Errorf("robustness metrics nonzero without a plan: %+v", m)
	}
}

// TestDisabledPlanIsNil: a zero-valued plan is "disabled" and must not
// attach an injector (so fault-free configs that set the pointer but no
// knobs keep the exact baseline event order).
func TestDisabledPlanIsNil(t *testing.T) {
	cfg := faultedConfig(t, &faultinject.Plan{Seed: 99})
	node, _ := mustNode(t, cfg)
	if node.FaultInj != nil {
		t.Fatal("injector attached for a plan with no enabled knobs")
	}
}

// TestRetryPolicyBackoff: capped doubling, 10 µs to 1 ms.
func TestRetryPolicyBackoff(t *testing.T) {
	want := []sim.Time{10, 20, 40, 80, 160, 320, 640, 1000, 1000}
	for i, w := range want {
		w *= sim.Microsecond
		if got := retryBackoff(i + 1); got != w {
			t.Errorf("backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
}

// TestInvalidFaultPlanRejected: NewNode surfaces plan validation.
func TestInvalidFaultPlanRejected(t *testing.T) {
	cfg := faultedConfig(t, &faultinject.Plan{ReadFailProb: 2})
	if _, err := NewNode(cfg, nil); err == nil {
		t.Fatal("invalid fault plan accepted")
	}
}
