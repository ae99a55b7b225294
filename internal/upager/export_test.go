package upager

// MarkStored is markStored, for the tests in package upager_test.
func MarkStored(p *Pager, n uint64) { markStored(p, n) }
