package sim

// Chan is a bounded FIFO queue connecting simulated processes, analogous to
// a buffered Go channel but operating in virtual time. A capacity of 0 is
// treated as 1 (the engine has no rendezvous primitive and none of the
// simulated systems need one).
type Chan[T any] struct {
	buf      []T
	cap      int
	closed   bool
	notEmpty WaitQueue
}

// NewChan returns a bounded queue with the given capacity.
func NewChan[T any](capacity int) *Chan[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &Chan[T]{cap: capacity}
}

// Len returns the number of queued items.
func (c *Chan[T]) Len() int { return len(c.buf) }

// TryPut appends v if there is room and reports whether it did.
func (c *Chan[T]) TryPut(v T) bool {
	if c.closed || len(c.buf) >= c.cap {
		return false
	}
	c.buf = append(c.buf, v)
	c.notEmpty.Signal(1)
	return true
}

// Get removes and returns the oldest item, blocking while the queue is
// empty. ok is false if the queue is closed and drained.
func (c *Chan[T]) Get(p *Proc) (v T, ok bool) {
	for len(c.buf) == 0 {
		if c.closed {
			return v, false
		}
		c.notEmpty.Wait(p)
	}
	v = c.buf[0]
	copy(c.buf, c.buf[1:])
	c.buf = c.buf[:len(c.buf)-1]
	return v, true
}

// Close marks the queue closed and wakes all blocked readers.
func (c *Chan[T]) Close() {
	c.closed = true
	c.notEmpty.Broadcast()
}
