package core

import (
	"fmt"

	"mage/internal/faultinject"
	"mage/internal/nic"
	"mage/internal/sim"
)

// This file scales the Node/Tenant split one level up: a Rack is N nodes
// sharing one discrete-event engine, joined by a simulated fabric. The
// rack exists for one policy: cross-node eviction — a node under memory
// pressure offers victim pages to a neighbour with free frames before
// paying a swap writeback (see borrow.go).

// NodeSpec describes one rack node: its shared substrate plus the
// tenants co-located on it (empty Tenants builds a single-tenant node
// shaped by Cfg alone, exactly like NewNode).
type NodeSpec struct {
	Cfg     Config
	Tenants []TenantSpec
}

// RackConfig describes a rack.
type RackConfig struct {
	// Nodes are the rack's nodes in index order.
	Nodes []NodeSpec
	// Link parameterizes every fabric link; the zero value takes
	// nic.DefaultLinkCosts.
	Link nic.LinkCosts
	// Borrow enables cross-node eviction: victims are offered to the
	// neighbour with the most spare frames before being written to swap.
	Borrow bool
	// LinkPlans attaches deterministic fault schedules to individual
	// links, keyed by node-index pair (either order). A severed link
	// (outage window) stops borrowing across it and times out transfers,
	// the same verbs that sever a node's NIC.
	LinkPlans map[[2]int]*faultinject.Plan
}

// Rack is N nodes on one engine joined by a fabric.
type Rack struct {
	Eng    *sim.Engine
	Fab    *nic.Fabric
	Nodes  []*Node
	Borrow bool
}

// NewRack assembles the rack: one engine, one fabric, and every node
// built on that engine in index order.
func NewRack(rc RackConfig) (*Rack, error) {
	if len(rc.Nodes) == 0 {
		return nil, fmt.Errorf("core: rack needs at least one node")
	}
	if rc.Link == (nic.LinkCosts{}) {
		rc.Link = nic.DefaultLinkCosts()
	}
	eng := sim.NewEngine()
	r := &Rack{
		Eng:    eng,
		Fab:    nic.NewFabric(eng, len(rc.Nodes), rc.Link),
		Borrow: rc.Borrow,
	}
	for i, spec := range rc.Nodes {
		n, err := newNodeOn(eng, spec.Cfg, spec.Tenants)
		if err != nil {
			return nil, fmt.Errorf("core: rack node %d: %w", i, err)
		}
		n.rack = r
		n.rackIndex = i
		// Borrow fetches ride the same retry ladder as remote reads, so
		// the policy must be usable even without a fault plan.
		n.Cfg.Retry.fillDefaults()
		r.Nodes = append(r.Nodes, n)
	}
	for a := 0; a < len(rc.Nodes); a++ {
		for b := a + 1; b < len(rc.Nodes); b++ {
			plan := rc.LinkPlans[[2]int{a, b}]
			if plan == nil {
				plan = rc.LinkPlans[[2]int{b, a}]
			}
			if !plan.Enabled() {
				continue
			}
			inj, err := faultinject.New(*plan)
			if err != nil {
				return nil, fmt.Errorf("core: rack link %d-%d: %w", a, b, err)
			}
			r.Fab.SetLinkInjector(a, b, inj)
		}
	}
	return r, nil
}

// pickHost returns the borrow target for a node under pressure: the
// reachable neighbour with the most spare frames, lowest index on ties,
// together with its lend budget. nil when no neighbour can host.
// Selection reads only engine-time state, so it is as deterministic as
// the event order itself.
func (r *Rack) pickHost(from *Node, now sim.Time) (*Node, int) {
	var best *Node
	bestBudget := 0
	for j, cand := range r.Nodes {
		if j == from.rackIndex || cand.Cfg.Ideal {
			continue
		}
		if r.Fab.Link(from.rackIndex, j).Down(now) {
			continue
		}
		if b := cand.lendBudget(); b > bestBudget {
			best, bestBudget = cand, b
		}
	}
	return best, bestBudget
}

// Run executes each node's tenant streams (streams[node][tenant][thread])
// to completion on the shared engine and returns one RunResult per
// tenant per node. Every node's processes are spawned in node order
// before the engine runs — the rack-scale extension of RunTenants'
// fixed spawn order — so the event sequence is a pure function of the
// configuration and streams.
func (r *Rack) Run(streams [][][]AccessStream, opts RunOptions) [][]RunResult {
	if len(streams) != len(r.Nodes) {
		panic(fmt.Sprintf("core: %d stream sets for %d rack nodes", len(streams), len(r.Nodes)))
	}
	runs := make([]*nodeRun, len(r.Nodes))
	for i, n := range r.Nodes {
		runs[i] = n.startTenants(streams[i], opts)
	}
	if opts.Deadline > 0 {
		r.Eng.RunUntil(opts.Deadline)
		for _, n := range r.Nodes {
			if !n.stopped {
				n.Stop()
			}
		}
		r.Eng.Stop()
		r.Eng.Shutdown()
	} else {
		r.Eng.Run()
	}
	out := make([][]RunResult, len(r.Nodes))
	for i, run := range runs {
		out[i] = run.finish()
	}
	return out
}
