package upager

import (
	"fmt"

	"mage/internal/memnode"
)

// This file is what only bench/, a module a change claiming a gain may
// not edit, still needs of upager: the shapes it compiles against.

// Backing is the far-memory store New takes. bench/page.go passes a
// memnode.Client or a memcluster.Cluster as one, bench/shim.go embeds it
// in its tracing shim and forwards Read, ReadV and WriteV by name, and
// bench/checkers_test.go passes New a fake with these five methods alone.
type Backing interface {
	Register(size int64) (uint64, error)
	Read(handle uint64, offset, length int64) ([]byte, error)
	Write(handle uint64, offset int64, data []byte) error
	ReadV(handle uint64, offsets []int64, pageBytes int64) ([][]byte, error)
	WriteV(handle uint64, offsets []int64, pages [][]byte) error
}

// AsyncBacking is a Backing with memnode's futures. bench/shim.go keeps
// ReadAsync visible through its shim by asserting for it, and
// bench/bench_test.go checks that it does; the pager never calls it.
type AsyncBacking interface {
	Backing
	ReadAsync(handle uint64, offset, length int64) *memnode.Pending
}

// adapter makes far of a Backing that is not: bench/checkers_test.go's
// fake and bench/shim.go's shims. One page, a demand fault's, is a Read
// on the faulting goroutine and a copy; a batch is a ReadV and a copy; a
// started read is either, on a goroutine of its own.
type adapter struct{ Backing }

func (a adapter) ReadVInto(handle uint64, offsets []int64, dst [][]byte) error {
	if len(dst) == 1 {
		body, err := a.Read(handle, offsets[0], int64(len(dst[0])))
		if err != nil {
			return err
		}
		copy(dst[0], body)
		memnode.PutBuf(body)
		return nil
	}
	bodies, err := a.ReadV(handle, offsets, int64(len(dst[0])))
	if err != nil {
		return err
	}
	if len(bodies) != len(dst) {
		return fmt.Errorf("upager: readv returned %d of %d pages", len(bodies), len(dst))
	}
	for i, body := range bodies {
		copy(dst[i], body)
	}
	return nil
}

func (a adapter) StartReadVInto(handle uint64, offsets []int64, dst [][]byte, done func(error)) {
	go func() { done(a.ReadVInto(handle, offsets, dst)) }() //magevet:ok real-host pager: a backing that cannot start a read has it run beside the caller's own work
}
