package memnode

// This file is what only bench/, a module a change claiming a gain may
// not edit, still reads of memnode; no other non-test code calls it.

// Pending is the future ReadAsync returns: an asyncOp whose hook closes
// done. bench/shim.go's tracedAsyncBacking returns it and waits on Done;
// bench/bench_test.go names the type.
type Pending struct {
	op   asyncOp
	done chan struct{} // closed once op is over; op.proto holds the result
}

// Wait blocks until the read is over and returns its body, the caller's
// to hand to PutBuf, and its error, however often it is called.
func (p *Pending) Wait() ([]byte, error) {
	<-p.done
	return p.op.proto.body, p.op.proto.err
}

// Done returns a channel closed when the read is over (bench/shim.go).
func (p *Pending) Done() <-chan struct{} { return p.done }

// ReadAsync starts a one-sided read of length bytes at offset and returns
// its future. bench/shim.go forwards it for a backing that has it.
func (c *Client) ReadAsync(handle uint64, offset, length int64) *Pending {
	p := &Pending{done: make(chan struct{})}
	p.op = asyncOp{c: c, proto: call{op: opRead, handle: handle, offset: offset, length: length},
		hook: func(error) { close(p.done) }}
	if p.op.proto.err = p.op.proto.check(); p.op.proto.err != nil {
		close(p.done)
	} else if over, fileErr := c.startFile(&p.op.proto, p.op.hook); !over {
		p.op.start(fileErr)
	}
	return p
}

// ReadV is ReadVInto into pages of pageBytes each that it allocates as
// one contiguous buffer. It makes a Client an upager.Backing, which
// bench/page.go passes it as and bench/shim.go forwards ReadV through.
func (c *Client) ReadV(handle uint64, offsets []int64, pageBytes int64) ([][]byte, error) {
	// Division, not multiplication: pageBytes*len(offsets) can overflow
	// int64 and slip past a product-form check.
	if len(offsets) == 0 || len(offsets) > MaxBatchPages || pageBytes <= 0 || pageBytes > MaxIO/int64(len(offsets)) {
		return nil, refusef("bad batch shape (%d pages of %d bytes)", len(offsets), pageBytes)
	}
	pages := SplitPages(make([]byte, pageBytes*int64(len(offsets))), pageBytes)
	if err := c.ReadVInto(handle, offsets, pages); err != nil {
		return nil, err
	}
	return pages, nil
}
