package memcluster

import (
	"fmt"

	"mage/internal/memnode"
)

// ReadV is ReadVInto into pages of pageBytes each that it allocates as
// one contiguous buffer. It makes a Cluster an upager.Backing, which
// bench/page.go passes it as and bench/shim.go forwards ReadV through.
func (cl *Cluster) ReadV(handle uint64, offsets []int64, pageBytes int64) ([][]byte, error) {
	if len(offsets) == 0 || len(offsets) > memnode.MaxBatchPages || pageBytes <= 0 || pageBytes > memnode.MaxIO/int64(len(offsets)) {
		return nil, fmt.Errorf("memcluster: bad batch shape (%d pages of %d bytes)", len(offsets), pageBytes)
	}
	pages := memnode.SplitPages(make([]byte, pageBytes*int64(len(offsets))), pageBytes)
	if err := cl.ReadVInto(handle, offsets, pages); err != nil {
		return nil, err
	}
	return pages, nil
}
