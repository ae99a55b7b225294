package core

import (
	"testing"

	"mage/internal/faultinject"
	"mage/internal/sim"
)

// multiTenantConfig returns a small MageLib substrate config for nt
// tenants of pagesEach pages sharing localPages frames. Per-tenant shapes
// go in the specs; NewNode overwrites the aggregate fields.
func multiTenantConfig(t *testing.T, nt int, pagesEach uint64, localPages int) Config {
	t.Helper()
	cfg, err := Preset("magelib", nt*2, uint64(nt)*pagesEach, localPages)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sockets = 1
	cfg.CoresPerSocket = 8
	cfg.EvictorThreads = 2
	return cfg
}

func tenantSpecs(nt int, threads int, pagesEach uint64) []TenantSpec {
	specs := make([]TenantSpec, nt)
	for i := range specs {
		specs[i] = TenantSpec{AppThreads: threads, TotalPages: pagesEach}
	}
	return specs
}

// tenantStreams builds per-tenant random streams over each tenant's own
// page space, seeded by tenant and thread identity.
func tenantStreams(nt, threads, perThread int, wss uint64) [][]AccessStream {
	out := make([][]AccessStream, nt)
	for ti := range out {
		out[ti] = make([]AccessStream, threads)
		for i := range out[ti] {
			out[ti][i] = randStream(int64(1000*ti+i), perThread, wss, 200, 0.3)
		}
	}
	return out
}

// TestCrossTenantEvictionPressure: four tenants whose aggregate WSS is 4×
// local memory all make progress, and the shared (node-global) victim
// selection charges evictions to every tenant — no tenant is exempt from
// its neighbours' pressure.
func TestCrossTenantEvictionPressure(t *testing.T) {
	const nt, threads, pagesEach = 4, 2, 2048
	cfg := multiTenantConfig(t, nt, pagesEach, 2048)
	n, err := NewNode(cfg, tenantSpecs(nt, threads, pagesEach))
	if err != nil {
		t.Fatal(err)
	}
	budget := n.PrepopBudget()
	for _, tn := range n.Tenants() {
		tn.Prepopulate(budget / nt)
	}
	results := n.RunTenants(tenantStreams(nt, threads, 2000, pagesEach), RunOptions{})
	if len(results) != nt {
		t.Fatalf("got %d results for %d tenants", len(results), nt)
	}
	for ti, res := range results {
		if got := res.TotalAccesses(); got != threads*2000 {
			t.Errorf("tenant %d: accesses = %d, want %d", ti, got, threads*2000)
		}
		if res.Metrics.MajorFaults == 0 {
			t.Errorf("tenant %d: no major faults at 25%% local memory", ti)
		}
		if res.Metrics.EvictedPages == 0 {
			t.Errorf("tenant %d: no evictions charged under node-wide pressure", ti)
		}
	}
}

// TestTenantOutageIsolation: tenant 0 rides out its own injected link
// outages in per-tenant degraded mode while tenant 1 — no plan of its
// own, no node-wide plan — keeps faulting undisturbed the whole time.
func TestTenantOutageIsolation(t *testing.T) {
	const nt, threads, pagesEach = 2, 4, 4096
	cfg, err := Preset("magelib", nt*threads, nt*pagesEach, 4096)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sockets = 1
	cfg.CoresPerSocket = 8
	cfg.EvictorThreads = 2
	specs := tenantSpecs(nt, threads, pagesEach)
	specs[0].FaultPlan = &faultinject.Plan{
		Seed:    faultinject.DeriveSeed(7, "core", "tenant-outage"),
		Outages: faultinject.PeriodicOutages(2*sim.Millisecond, 4*sim.Millisecond, sim.Millisecond, 3),
	}
	n, err := NewNode(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	budget := n.PrepopBudget()
	for _, tn := range n.Tenants() {
		tn.Prepopulate(budget / nt)
	}
	results := n.RunTenants(tenantStreams(nt, threads, 3000, pagesEach), RunOptions{})
	for ti, res := range results {
		if got := res.TotalAccesses(); got != threads*3000 {
			t.Fatalf("tenant %d: accesses = %d, want %d", ti, got, threads*3000)
		}
	}
	a, b := results[0].Metrics, results[1].Metrics
	if a.FaultTimeouts == 0 || a.FaultGiveUps == 0 {
		t.Errorf("tenant 0 never hit its outages: timeouts=%d give-ups=%d",
			a.FaultTimeouts, a.FaultGiveUps)
	}
	if a.DegradedNs <= 0 || a.DegradedSpans == 0 {
		t.Errorf("tenant 0 never parked in degraded mode: ns=%d spans=%d",
			a.DegradedNs, a.DegradedSpans)
	}
	if b.MajorFaults == 0 {
		t.Error("tenant 1 stopped faulting during its neighbour's outage")
	}
	if b.FaultTimeouts != 0 || b.FaultGiveUps != 0 || b.DegradedNs != 0 {
		t.Errorf("tenant 1 caught its neighbour's outage: timeouts=%d give-ups=%d degraded=%dns",
			b.FaultTimeouts, b.FaultGiveUps, b.DegradedNs)
	}
}

// TestRunTenantsDeterministic: the same multi-tenant configuration and
// streams reproduce identical per-tenant makespans and counters.
func TestRunTenantsDeterministic(t *testing.T) {
	run := func() []RunResult {
		const nt, threads, pagesEach = 3, 2, 2048
		cfg := multiTenantConfig(t, nt, pagesEach, 3072)
		n, err := NewNode(cfg, tenantSpecs(nt, threads, pagesEach))
		if err != nil {
			t.Fatal(err)
		}
		budget := n.PrepopBudget()
		for _, tn := range n.Tenants() {
			tn.Prepopulate(budget / nt)
		}
		return n.RunTenants(tenantStreams(nt, threads, 1500, pagesEach), RunOptions{})
	}
	r1, r2 := run(), run()
	for ti := range r1 {
		m1, m2 := r1[ti].Metrics, r2[ti].Metrics
		if r1[ti].Makespan != r2[ti].Makespan {
			t.Errorf("tenant %d: makespan %v vs %v", ti, r1[ti].Makespan, r2[ti].Makespan)
		}
		if m1.MajorFaults != m2.MajorFaults || m1.EvictedPages != m2.EvictedPages ||
			m1.FaultP99Ns != m2.FaultP99Ns {
			t.Errorf("tenant %d: metrics diverge: %+v vs %+v", ti, m1, m2)
		}
	}
}

// TestPrepopBudgetIsNodeWide: a tenant that warm-starts its whole WSS
// drains the shared budget; its co-tenant gets nothing.
func TestPrepopBudgetIsNodeWide(t *testing.T) {
	cfg := multiTenantConfig(t, 2, 2048, 2048)
	n, err := NewNode(cfg, tenantSpecs(2, 2, 2048))
	if err != nil {
		t.Fatal(err)
	}
	budget := n.PrepopBudget()
	if budget <= 0 || budget >= cfg.LocalMemPages {
		t.Fatalf("budget = %d, want in (0, %d)", budget, cfg.LocalMemPages)
	}
	got0 := n.Tenants()[0].Prepopulate(2048)
	if got0 != budget {
		t.Errorf("tenant 0 populated %d, want the full budget %d", got0, budget)
	}
	if left := n.PrepopBudget(); left != 0 {
		t.Errorf("budget after drain = %d, want 0", left)
	}
	if got1 := n.Tenants()[1].Prepopulate(100); got1 != 0 {
		t.Errorf("tenant 1 populated %d from an empty budget", got1)
	}
}

// TestNewNodeValidation: the constructor rejects malformed tenant sets.
func TestNewNodeValidation(t *testing.T) {
	base := func() Config { return multiTenantConfig(t, 2, 1024, 1024) }
	cases := []struct {
		name  string
		cfg   Config
		specs []TenantSpec
	}{
		{"zero threads", base(), []TenantSpec{{AppThreads: 0, TotalPages: 64}}},
		{"zero pages", base(), []TenantSpec{{AppThreads: 1, TotalPages: 0}}},
		{"page key overflow", base(), []TenantSpec{{AppThreads: 1, TotalPages: 1 << tenantPageBits}}},
		{"threads exceed cores", base(), tenantSpecs(2, 5, 1024)},
		{"multi-tenant ideal", func() Config {
			cfg, err := Preset("ideal", 4, 2048, 1024)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Sockets = 1
			cfg.CoresPerSocket = 8
			return cfg
		}(), tenantSpecs(2, 2, 1024)},
	}
	for _, tc := range cases {
		if _, err := NewNode(tc.cfg, tc.specs); err == nil {
			t.Errorf("%s: NewNode accepted invalid specs", tc.name)
		}
	}
}

// TestSingleTenantNode: NewNode with no specs is a one-tenant node whose
// tenant 0 keys pages by their raw numbers.
func TestSingleTenantNode(t *testing.T) {
	node, _ := mustNode(t, smallPreset(t, "magelib", 2))
	tenants := node.Tenants()
	if len(tenants) != 1 {
		t.Fatalf("single-tenant node has %d tenants", len(tenants))
	}
	if tenants[0].ID != 0 {
		t.Errorf("tenant id = %d, want 0", tenants[0].ID)
	}
	if key := tenants[0].key(123); key != 123 {
		t.Errorf("tenant 0 key(123) = %d: single-tenant keys must equal raw pages", key)
	}
}
