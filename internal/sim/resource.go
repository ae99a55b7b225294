package sim

// Mutex is a FIFO-queued lock for simulated processes and continuations.
// Waiting for a contended Mutex consumes virtual time; the engine records
// how much, which is how lock contention shows up in experiment results.
//
// The zero value is NOT usable; create with NewMutex so contention
// statistics are attached to an engine.
type Mutex struct {
	eng     *Engine
	name    string
	held    bool
	holder  *Proc // nil while a continuation holds the mutex
	waiters []waiter

	// Contention statistics, readable at any time.
	Acquires  uint64 // total successful Lock calls
	Contended uint64 // Lock calls that had to wait
	WaitNs    int64  // total virtual ns spent waiting
	MaxWaitNs int64  // largest single wait
}

// waiter is one entry of a Mutex's FIFO: a blocked process, or a
// continuation (k) with the instant it queued.
type waiter struct {
	p  *Proc
	k  func()
	at Time
}

// NewMutex returns an unlocked mutex attached to eng.
func NewMutex(eng *Engine, name string) *Mutex {
	return &Mutex{eng: eng, name: name}
}

// Name returns the name given at construction.
func (m *Mutex) Name() string { return m.name }

// Lock acquires the mutex, blocking p in FIFO order if it is held.
func (m *Mutex) Lock(p *Proc) {
	m.Acquires++
	if !m.held {
		m.held, m.holder = true, p
		return
	}
	m.Contended++
	m.waiters = append(m.waiters, waiter{p: p})
	start := p.eng.now
	p.block()
	m.recordWait(int64(p.eng.now - start))
	// Ownership was transferred by Unlock before we were woken.
	if m.holder != p {
		panic("sim: mutex handoff error on " + m.name)
	}
}

// LockThen is Lock for a continuation: k runs holding the mutex, at once
// if it is free, or else from the same FIFO as the processes, as an event
// at the instant Unlock hands the mutex over, where a queued process's
// wake would have been. k, or a continuation it schedules, releases the
// mutex with Release.
func (m *Mutex) LockThen(k func()) {
	m.Acquires++
	if !m.held {
		m.held, m.holder = true, nil
		k()
		return
	}
	m.Contended++
	m.waiters = append(m.waiters, waiter{k: k, at: m.eng.now})
}

// Unlock releases the mutex, handing it to the longest waiter if any.
// Only the holder may unlock.
func (m *Mutex) Unlock(p *Proc) {
	if !m.held || m.holder != p {
		panic("sim: unlock of mutex " + m.name + " not held by " + p.name)
	}
	m.handOff()
}

// Release is Unlock for the continuation that holds the mutex through
// LockThen.
func (m *Mutex) Release() {
	if !m.held || m.holder != nil {
		panic("sim: release of mutex " + m.name + " not held by a continuation")
	}
	m.handOff()
}

// handOff passes the mutex to the longest waiter, or frees it. A process
// is woken now and counts its own wait when it resumes; a continuation is
// scheduled now, and its wait, which ends at this same instant, is
// counted here.
func (m *Mutex) handOff() {
	if len(m.waiters) == 0 {
		m.held, m.holder = false, nil
		return
	}
	w := m.waiters[0]
	n := copy(m.waiters, m.waiters[1:])
	m.waiters[n] = waiter{}
	m.waiters = m.waiters[:n]
	m.holder = w.p
	if w.k == nil {
		m.eng.wake(w.p, wakeSignal)
		return
	}
	m.recordWait(int64(m.eng.now - w.at))
	m.eng.After(0, w.k)
}

func (m *Mutex) recordWait(waited int64) {
	m.WaitNs += waited
	if waited > m.MaxWaitNs {
		m.MaxWaitNs = waited
	}
}

// WaitQueue is a condition-variable-like wait list. Processes Wait on it
// and are released in FIFO order by Signal or Broadcast. The zero value
// is an empty queue: it schedules on the engine of the process it parks
// or wakes, so it needs none of its own.
type WaitQueue struct {
	waiters []*Proc
}

// Len returns the number of waiting processes.
func (q *WaitQueue) Len() int { return len(q.waiters) }

// Wait blocks p until a Signal or Broadcast releases it.
func (q *WaitQueue) Wait(p *Proc) {
	q.waiters = append(q.waiters, p)
	p.block()
}

// WaitTimeout blocks p until signaled or until d elapses. It reports true
// if the process was signaled and false on timeout.
func (q *WaitQueue) WaitTimeout(p *Proc, d Time) bool {
	q.waiters = append(q.waiters, p)
	// Schedule the timeout as the pending event; Signal cancels it.
	p.blocked = true
	p.pending = p.eng.schedule(p.eng.now+d, p, wakeTimeout)
	reason := p.park()
	p.blocked = false
	p.pending = nil
	if reason == wakeTimeout {
		q.remove(p)
		return false
	}
	return true
}

func (q *WaitQueue) remove(p *Proc) {
	for i, w := range q.waiters {
		if w == p {
			q.waiters = append(q.waiters[:i], q.waiters[i+1:]...)
			return
		}
	}
}

// Signal releases up to n waiting processes (FIFO) and returns how many it
// released.
func (q *WaitQueue) Signal(n int) int {
	released := 0
	for released < n && len(q.waiters) > 0 {
		p := q.waiters[0]
		copy(q.waiters, q.waiters[1:])
		q.waiters = q.waiters[:len(q.waiters)-1]
		// A WaitTimeout waiter has a pending timeout event; wake cancels it.
		p.eng.scheduleWake(p, p.eng.now, wakeSignal)
		released++
	}
	return released
}

// Broadcast releases all waiting processes.
func (q *WaitQueue) Broadcast() int { return q.Signal(len(q.waiters)) }
