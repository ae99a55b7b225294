package core

// System is one assembled single-tenant far-memory system: a Node whose
// shared substrate (machine, NIC, allocators, accounting, evictors) is
// dedicated to exactly one Tenant (address space, metrics, fault path).
// The embedded pair promotes both layers' fields and methods, so code
// written against the pre-split fused System — every experiment, test,
// and the mage.go facade — keeps working unchanged and produces
// byte-identical output. Multi-tenant co-location uses NewNode directly.
type System struct {
	*Node
	*Tenant
}

// Breakdown component labels (Figs 6 and 16).
const (
	CompRDMA   = "rdma-read"
	CompTLB    = "tlb-flush"
	CompAcct   = "page-accounting"
	CompAlloc  = "mem-circulation"
	CompOthers = "others"
)

// NewSystem builds a single-tenant system from cfg on a fresh engine.
func NewSystem(cfg Config) (*System, error) {
	n, err := NewNode(cfg, nil)
	if err != nil {
		return nil, err
	}
	return &System{Node: n, Tenant: n.tenants[0]}, nil
}

// MustNewSystem is NewSystem that panics on configuration errors.
func MustNewSystem(cfg Config) *System {
	s, err := NewSystem(cfg)
	if err != nil {
		panic(err)
	}
	return s
}
