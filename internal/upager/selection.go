package upager

import "fmt"

// Victim selection: S3-FIFO over the frames.
//
// A page that has just become resident is queued on small, a FIFO with
// a tenth of the frames as its share; a page that is pinned again while
// it waits there is promoted to main when it reaches the head, and one
// that is not is evicted from there — so the long tail of a skewed
// stream, pages touched once per residency, passes through a tenth of
// the arena and leaves the rest to pages that have shown a second use.
// main is a FIFO with a second chance per recorded use: a 2-bit counter
// per page, bumped by Pin, spent one per trip to the head. An eviction
// from small leaves a ghost — the page's stamp of a counter of such
// evictions — and a page that faults back while its stamp is younger
// than main is long was evicted too early: it goes straight to main,
// and is counted (Stats.Refaults).
//
// The type is pure: two rings of frame numbers and a counter, working on
// the page table it is handed. It takes no lock and allocates nothing
// after newSelection; the pager calls it under p.mu, the replay test
// with nothing else around it.

// maxFreq saturates a page's use counter: two bits, S3-FIFO's choice.
const maxFreq = 3

// ring is a FIFO of frame numbers in a buffer made once, as large as
// the arena: a ring can hold every frame, so push never fails.
type ring struct {
	buf  []int32
	head int
	n    int
}

func (r *ring) push(f int32) {
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = f
	r.n++
}

func (r *ring) pop() int32 {
	f := r.buf[r.head]
	if r.head++; r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	return f
}

type selection struct {
	small, main ring
	share       int    // small is drained while it holds more than this
	window      uint32 // a ghost is live for this many evictions from small
	clock       uint32 // evictions from small so far

	// Running totals, for the evictor's sweep bound and the tests: heads
	// looked at, and heads that were given another round (promoted from
	// small, or requeued on main for a use they had recorded).
	examined, spared uint64
}

func newSelection(frames int) *selection {
	share := frames / 10
	return &selection{
		small:  ring{buf: make([]int32, frames)},
		main:   ring{buf: make([]int32, frames)},
		share:  share,
		window: uint32(frames - share),
	}
}

// touch records a Pin of resident page pd. A page is untouched from the
// moment FaultAhead's batch installs it until its first Pin, which is
// the use it was read for and not a second one. A lone demand fault is
// installed touched: the Pin that took it is already there.
func (pd *page) touch() {
	switch {
	case pd.flags&flagUntouched != 0:
		pd.flags &^= flagUntouched
	case pd.freq < maxFreq:
		pd.freq++
	}
}

// admit queues frame f, in which pd has just become resident, and
// reports whether pd's ghost was live: a refault. The stamp wraps after
// 2^32 evictions from small, when a page absent for all of them can pass
// for a ghost once; that costs it a place on main it had not earned.
func (s *selection) admit(pd *page, f int32, untouched bool) (refault bool) {
	refault = pd.ghost != 0 && s.clock-pd.ghost < s.window
	pd.freq, pd.ghost = 0, 0
	if pd.flags &^= flagUntouched; untouched {
		pd.flags |= flagUntouched
	}
	if refault {
		s.main.push(f)
	} else {
		s.small.push(f)
	}
	return refault
}

// requeue puts back frame f, whose eviction did not happen: pd is
// resident again. It returns to the ring it was taken from.
func (s *selection) requeue(pd *page, f int32) {
	if pd.ghost != 0 {
		pd.ghost = 0
		s.small.push(f)
	} else {
		s.main.push(f)
	}
}

// next takes queue heads until one is the victim, and returns its frame,
// which is in neither ring from then on; it returns false when limit
// heads have been examined, in all, or both rings are empty. small is
// looked at while it is over its share, otherwise main. A head that is
// pinned or in transit goes to its ring's tail unjudged, and sends the
// next look to the other ring, so that an evictable page is never hidden
// behind a ring full of pins: one that exists is reached within two
// looks per frame.
func (s *selection) next(pages []page, owner []uint64, limit uint64) (int32, bool) {
	var busy *ring
	for s.examined < limit {
		r, other := &s.main, &s.small
		if s.small.n > s.share || s.main.n == 0 {
			r, other = other, r
		}
		if r == busy && other.n > 0 {
			r = other
		}
		if r.n == 0 {
			break
		}
		s.examined++
		f := r.pop()
		pd := &pages[owner[f]]
		switch {
		case pd.state != pageResident || pd.pins > 0:
			r.push(f)
			busy = r
			continue
		case pd.freq == 0:
			if r == &s.small {
				if s.clock++; s.clock == 0 {
					s.clock = 1
				}
				pd.ghost = s.clock
			}
			return f, true
		case r == &s.small:
			pd.freq = 0
			s.main.push(f)
		default:
			pd.freq--
			r.push(f)
		}
		s.spared++
		busy = nil
	}
	return -1, false
}

// verify is the invariant over the queues, which the magecheck build
// runs (Pager.checkQueues): they hold the resident frames and nothing
// else. A frame that names a page is in exactly one ring exactly once; a
// frame that is free or on the wire — claimed by a fill, or a dirty
// victim in the evictor's batch — names none and is in neither. It
// returns the first violation, or nil. O(frames).
func (s *selection) verify(pages []page, owner []uint64) error {
	queued := make([]uint8, len(owner))
	for _, r := range []*ring{&s.small, &s.main} {
		for i := 0; i < r.n; i++ {
			queued[r.buf[(r.head+i)%len(r.buf)]]++
		}
	}
	for f, n := range queued {
		pg := owner[f]
		if pg == noPage {
			if n != 0 {
				return fmt.Errorf("upager: frame %d is free or on the wire, and queued %d times", f, n)
			}
			continue
		}
		pd := &pages[pg]
		if n != 1 {
			return fmt.Errorf("upager: frame %d holds page %d and is queued %d times", f, pg, n)
		}
		if pd.frame != int32(f) || (pd.state != pageResident && pd.state != pageEvicting) {
			return fmt.Errorf("upager: frame %d names page %d, which is in state %d in frame %d", f, pg, pd.state, pd.frame)
		}
	}
	return nil
}
