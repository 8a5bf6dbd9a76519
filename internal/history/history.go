// Package history is the delayed-observation record every engine
// shares: a sender acting on the queue as it stood at t − τ reads it
// from a Series. A Series stores timestamps with flat float64 rows of
// a fixed width (one column per observed quantity, no per-record
// slice) and answers three kinds of lookup:
//
//   - Hold: piecewise-constant, for event-driven queues that change
//     in jumps (the packet simulators);
//   - Lerp: linear interpolation, for continuous fluid-limit and
//     delay-DE states;
//   - AvgHold: the time-average of the piecewise-constant record over
//     a window (the DECbit averaged-queue rule).
//
// Records arrive in non-decreasing time order. Each caller prunes on
// every record with its own lookback cut; lookups at or after the
// latest cut then read exactly what the unpruned record holds (earlier
// times are outside the contract). Lookups search from a start index
// that Prune advances past dead records, and the backing arrays
// compact only when more than half of them is dead, so pruning costs
// amortized O(1) per record and a steady window appends without
// allocating.
package history

import (
	"fmt"
	"math"
	"sort"
)

// Series is a time-stamped record of fixed-width float64 rows. The
// zero value is unusable; build one with New.
type Series struct {
	width int
	t     []float64 // record times, non-decreasing
	rows  []float64 // rows[k*width : (k+1)*width] is record k
	start int       // first record lookups search; earlier ones are dead
	cut   float64   // the latest Prune cut
	span  int       // records from start at the last search for the cut
}

// New returns an empty series whose records hold width values each.
func New(width int) Series {
	if width < 1 {
		panic(fmt.Sprintf("history: width %d < 1", width))
	}
	return Series{width: width, cut: math.Inf(-1)}
}

// Append adds the record (t, row). row must hold exactly the series'
// width values; t must not precede the previous record.
func (s *Series) Append(t float64, row ...float64) {
	if len(row) != s.width {
		panic("history: row width differs from the series width")
	}
	s.t = append(s.t, t)
	s.rows = append(s.rows, row...)
}

// Prune declares dead every record before the last one strictly
// before cut, so every lookup at a time >= cut reads exactly what it
// would have read from the unpruned series: the record it holds, or
// the one it interpolates from, survives. Cuts must not decrease.
//
// A call is one comparison until the searched range has grown to
// twice its size at the previous search (plus 64); then a binary
// search moves start to the first live record, and the arrays compact
// if more than half of them is dead. Advancing start record by record
// instead costs a mispredicted branch on nearly every call when
// records arrive at random times. Either way the work is amortized
// O(1) per record and the arrays stay within a constant factor of the
// live window.
func (s *Series) Prune(cut float64) {
	s.cut = cut
	if len(s.t)-s.start < 2*s.span+64 {
		return
	}
	s.start = s.liveStart()
	s.span = len(s.t) - s.start
	if s.start > len(s.t)/2 && s.start > 64 {
		s.compact()
	}
}

// liveStart returns the index of the last record strictly before the
// latest cut, or start when there is none: the first live record.
func (s *Series) liveStart() int {
	if k := sort.SearchFloat64s(s.t[s.start:], s.cut); k > 0 {
		return s.start + k - 1
	}
	return s.start
}

// compact moves the live records to the front of the backing arrays.
func (s *Series) compact() {
	m := copy(s.t, s.t[s.start:])
	copy(s.rows, s.rows[s.start*s.width:])
	s.t = s.t[:m]
	s.rows = s.rows[:m*s.width]
	s.start = 0
}

// Reset empties the series, keeping its storage.
func (s *Series) Reset() {
	s.t = s.t[:0]
	s.rows = s.rows[:0]
	s.start, s.cut, s.span = 0, math.Inf(-1), 0
}

// Len returns the number of live records: the last one strictly
// before the latest cut and every later one.
func (s *Series) Len() int { return len(s.t) - s.liveStart() }

// TailTimes returns the timestamps of the most recent (up to) two
// records, oldest first — what the history-monotonicity invariant
// inspects (each record is appended once, so checking the tail after
// every append covers the whole series).
func (s *Series) TailTimes() []float64 {
	if n := len(s.t); n > 2 {
		return s.t[n-2:]
	}
	return s.t
}

// at returns column i of record k.
func (s *Series) at(k, i int) float64 { return s.rows[k*s.width+i] }

// holdIdx returns the index of the last searched record at or before
// t, or start−1 when t precedes every searched record. A burst of same-time
// records resolves to its LAST record: the state at t is the state
// after everything that happened at t.
func (s *Series) holdIdx(t float64) int {
	live := s.t[s.start:]
	return s.start + sort.Search(len(live), func(i int) bool { return live[i] > t }) - 1
}

// Hold returns column i as it stood at time t: the value of the last
// record at or before t, or 0 before the first record.
func (s *Series) Hold(i int, t float64) float64 {
	if k := s.holdIdx(t); k >= s.start {
		return s.at(k, i)
	}
	return 0
}

// Lerp returns column i at time t, linearly interpolated between the
// first record at or after t and the record before it, and clamped to
// the first and last records. An empty series reads 0. The pair
// straddles t strictly on its left (tL < t <= tR), so a same-time
// burst never yields a zero-width segment: a query after the burst
// interpolates from its last record.
func (s *Series) Lerp(i int, t float64) float64 {
	n := len(s.t)
	if s.start == n {
		return 0
	}
	k := s.start + sort.SearchFloat64s(s.t[s.start:], t)
	if k == s.start {
		return s.at(k, i)
	}
	if k == n {
		return s.at(n-1, i)
	}
	tL, tR := s.t[k-1], s.t[k]
	yL, yR := s.at(k-1, i), s.at(k, i)
	frac := (t - tL) / (tR - tL)
	return yL + frac*(yR-yL)
}

// AvgHold returns the time-average of the piecewise-constant column i
// over [a, b] (the Hold value at b when b <= a). Times before the
// first record contribute 0.
func (s *Series) AvgHold(i int, a, b float64) float64 {
	if b <= a {
		return s.Hold(i, b)
	}
	value := func(k int) float64 {
		if k < s.start {
			return 0
		}
		return s.at(k, i)
	}
	k := s.holdIdx(a)
	var integral float64
	t := a
	for k < len(s.t)-1 && s.t[k+1] < b {
		integral += value(k) * (s.t[k+1] - t)
		t = s.t[k+1]
		k++
	}
	integral += value(k) * (b - t)
	return integral / (b - a)
}
