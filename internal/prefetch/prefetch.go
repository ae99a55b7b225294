// Package prefetch implements the fault-address pattern-matching
// prefetcher the paper's systems use for regular access patterns (§6.2):
// "they record past fault-in virtual addresses to detect sequential
// access patterns".
//
// Each application thread owns one detector. On every major fault, the
// detector inspects its recent fault history; if the strides agree, it
// proposes up to Degree pages ahead along the detected stride, ramping the
// window up on repeated success like Linux readahead.
package prefetch

// Detector proposes prefetch candidates from a fault-address stream.
type Detector interface {
	// OnFault records a major fault at page and returns pages to prefetch
	// (possibly none).
	OnFault(page uint64) []uint64
}

// None is a Detector that never prefetches.
type None struct{}

// OnFault always returns nil.
func (None) OnFault(uint64) []uint64 { return nil }

// Stride detects constant-stride fault sequences.
type Stride struct {
	// MatchLen is how many consecutive equal strides trigger prefetch.
	MatchLen int
	// MaxDegree caps the ramped prefetch distance.
	MaxDegree int
	// Limit is the exclusive upper bound of valid page numbers.
	Limit uint64

	hist   []uint64
	degree int
}

// NewStride returns a detector requiring matchLen consistent strides and
// prefetching up to maxDegree pages within [0, limit).
func NewStride(matchLen, maxDegree int, limit uint64) *Stride {
	if matchLen < 2 {
		matchLen = 2
	}
	if maxDegree < 1 {
		maxDegree = 1
	}
	return &Stride{MatchLen: matchLen, MaxDegree: maxDegree, Limit: limit, degree: 2}
}

// OnFault implements Detector.
func (s *Stride) OnFault(page uint64) []uint64 {
	s.hist = append(s.hist, page)
	if len(s.hist)-1 > s.MatchLen {
		s.hist = s.hist[1:]
	}
	if len(s.hist)-1 < s.MatchLen {
		return nil
	}
	stride := int64(s.hist[1]) - int64(s.hist[0])
	if stride == 0 {
		return nil
	}
	for i := 2; i < len(s.hist); i++ {
		if int64(s.hist[i])-int64(s.hist[i-1]) != stride {
			s.degree = 2 // pattern broken: reset ramp
			return nil
		}
	}
	var out []uint64
	next := int64(page)
	for i := 0; i < s.degree; i++ {
		next += stride
		if next < 0 || uint64(next) >= s.Limit {
			break
		}
		out = append(out, uint64(next))
	}
	// Ramp up on sustained success, like readahead window doubling.
	if s.degree < s.MaxDegree {
		s.degree *= 2
		if s.degree > s.MaxDegree {
			s.degree = s.MaxDegree
		}
	}
	return out
}
