package sim

// Chan is a bounded FIFO queue connecting simulated processes, analogous to
// a buffered Go channel but operating in virtual time. A capacity of 0 is
// treated as 1 (the engine has no rendezvous primitive and none of the
// simulated systems need one).
type Chan[T any] struct {
	eng      *Engine
	name     string
	buf      []T
	cap      int
	closed   bool
	notEmpty *WaitQueue
	notFull  *WaitQueue
}

// NewChan returns a bounded queue with the given capacity.
func NewChan[T any](eng *Engine, name string, capacity int) *Chan[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &Chan[T]{
		eng:      eng,
		name:     name,
		cap:      capacity,
		notEmpty: NewWaitQueue(eng, name+".notEmpty"),
		notFull:  NewWaitQueue(eng, name+".notFull"),
	}
}

// Len returns the number of queued items.
func (c *Chan[T]) Len() int { return len(c.buf) }

// Put appends v, blocking while the queue is full. It panics if the queue
// is closed.
func (c *Chan[T]) Put(p *Proc, v T) {
	for len(c.buf) >= c.cap {
		if c.closed {
			panic("sim: Put on closed Chan " + c.name)
		}
		c.notFull.Wait(p)
	}
	if c.closed {
		panic("sim: Put on closed Chan " + c.name)
	}
	c.buf = append(c.buf, v)
	c.notEmpty.Signal(1)
}

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
	c.notFull.Signal(1)
	return v, true
}

// TryGet removes the oldest item without blocking.
func (c *Chan[T]) TryGet() (v T, ok bool) {
	if len(c.buf) == 0 {
		return v, false
	}
	v = c.buf[0]
	copy(c.buf, c.buf[1:])
	c.buf = c.buf[:len(c.buf)-1]
	c.notFull.Signal(1)
	return v, true
}

// Close marks the queue closed and wakes all blocked readers.
func (c *Chan[T]) Close() {
	c.closed = true
	c.notEmpty.Broadcast()
	c.notFull.Broadcast()
}
