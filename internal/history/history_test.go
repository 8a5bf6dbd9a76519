package history

import (
	"math"
	"testing"

	"fpcc/internal/rng"
)

// shadow is the brute-force reference model the property tests hold
// Series to: every record is kept forever (no pruning) as its own
// row, and lookups scan linearly.
type shadow struct {
	t    []float64
	rows [][]float64
}

func (s *shadow) append(t float64, row []float64) {
	s.t = append(s.t, t)
	s.rows = append(s.rows, append([]float64(nil), row...))
}

// idxAt returns the index of the last record at or before t (-1 when
// t precedes every record), resolving a same-time burst to its LAST
// record — the state after the burst settled.
func (s *shadow) idxAt(t float64) int {
	k := -1
	for i, ti := range s.t {
		if ti <= t {
			k = i
		}
	}
	return k
}

func (s *shadow) hold(i int, t float64) float64 {
	if k := s.idxAt(t); k >= 0 {
		return s.rows[k][i]
	}
	return 0
}

// lerp interpolates between the first record at or after t and the
// one before it, clamping at both ends.
func (s *shadow) lerp(i int, t float64) float64 {
	n := len(s.t)
	if n == 0 {
		return 0
	}
	k := 0
	for k < n && s.t[k] < t {
		k++
	}
	switch {
	case k == 0:
		return s.rows[0][i]
	case k == n:
		return s.rows[n-1][i]
	}
	frac := (t - s.t[k-1]) / (s.t[k] - s.t[k-1])
	return s.rows[k-1][i] + frac*(s.rows[k][i]-s.rows[k-1][i])
}

// avgHold integrates the piecewise-constant column over [a, b] by
// brute force: the window is cut at every distinct record time inside
// it and each piece contributes its (post-burst) state times its
// width.
func (s *shadow) avgHold(i int, a, b float64) float64 {
	if b <= a {
		return s.hold(i, b)
	}
	cuts := []float64{a}
	for _, ti := range s.t {
		if ti > a && ti < b {
			cuts = append(cuts, ti)
		}
	}
	// Record times arrive sorted, so cuts is sorted too.
	cuts = append(cuts, b)
	var integral float64
	for j := 0; j+1 < len(cuts); j++ {
		integral += s.hold(i, cuts[j]) * (cuts[j+1] - cuts[j])
	}
	return integral / (b - a)
}

// TestHoldDuplicateTimestamps is the regression test for the
// same-time-burst flaw: several records sharing one timestamp (a burst
// of arrivals processed at the same event time) must read back as the
// last record of the burst, not the first, in every column.
func TestHoldDuplicateTimestamps(t *testing.T) {
	h := New(2)
	h.Append(0, 0, 0.0)
	// A burst of three same-time changes at t=5.
	h.Append(5, 1, 0.1)
	h.Append(5, 2, 0.2)
	h.Append(5, 3, 0.3)
	h.Append(9, 7, 0.9)

	cases := []struct {
		name      string
		t, q, sig float64
	}{
		{"on the burst: its last record", 5, 3, 0.3},
		{"between the burst and the next change", 7, 3, 0.3},
		{"strictly before the burst", 4.5, 0, 0},
		{"on the last record", 9, 7, 0.9},
		{"after the last record", 100, 7, 0.9},
		{"before every record", -1, 0, 0},
	}
	for _, tc := range cases {
		if got := h.Hold(0, tc.t); got != tc.q {
			t.Errorf("%s: Hold(0, %v) = %v, want %v", tc.name, tc.t, got, tc.q)
		}
		if got := h.Hold(1, tc.t); got != tc.sig {
			t.Errorf("%s: Hold(1, %v) = %v, want %v", tc.name, tc.t, got, tc.sig)
		}
	}
	empty := New(1)
	if got := empty.Hold(0, 1); got != 0 {
		t.Errorf("Hold on an empty series = %v, want 0", got)
	}
}

// TestHoldBurstReadsLastRow pins the tie-break on wide rows: a
// same-time burst of width-3 records must read back its last row in
// every column.
func TestHoldBurstReadsLastRow(t *testing.T) {
	h := New(3)
	h.Append(0, 0, 0, 0)
	h.Append(2, 1, 10, 100)
	h.Append(2, 2, 20, 200)
	h.Append(2, 3, 30, 300)
	h.Append(4, 9, 90, 900)
	for i, want := range []float64{3, 30, 300} {
		if got := h.Hold(i, 2); got != want {
			t.Errorf("Hold(%d, 2) = %v, want %v (last row of the burst)", i, got, want)
		}
	}
}

// TestAvgHoldDuplicateTimestamps pins the tie-break behaviour of the
// windowed average: windows starting exactly on a duplicated
// timestamp, windows starting before the first record, and the
// degenerate point window must all resolve ties to the last same-time
// record.
func TestAvgHoldDuplicateTimestamps(t *testing.T) {
	h := New(1)
	// First records duplicated at t=5 (no t=0 sample), another burst
	// at t=10.
	h.Append(5, 1)
	h.Append(5, 4)
	h.Append(10, 2)
	h.Append(10, 6)

	cases := []struct {
		name       string
		a, b, want float64
	}{
		{"window start on duplicated first record", 5, 10, 4},
		{"window start before first record, cut at duplicated start", 0, 10, (0*5 + 4*5) / 10.0},
		{"window spanning both bursts", 5, 15, (4*5 + 6*5) / 10.0},
		{"point window on a burst", 10, 10, 6},
		{"window entirely before the history", -3, 2, 0},
	}
	for _, tc := range cases {
		if got := h.AvgHold(0, tc.a, tc.b); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: AvgHold(0, %v, %v) = %v, want %v", tc.name, tc.a, tc.b, got, tc.want)
		}
	}
}

// TestLerpClampsAndInterpolates checks the interpolation rule on a
// hand-built series: clamped before the first and after the last
// record, exact on records, linear in between, 0 when empty.
func TestLerpClampsAndInterpolates(t *testing.T) {
	h := New(2)
	if got := h.Lerp(1, 1); got != 0 {
		t.Fatalf("empty series Lerp = %v, want 0", got)
	}
	h.Append(0, 10, -10)
	h.Append(1, 20, -20)
	h.Append(2, 0, 0)
	for _, tc := range []struct{ t, want float64 }{
		{-1, 10}, {0, 10}, {0.5, 15}, {1, 20}, {1.75, 5}, {2, 0}, {3, 0},
	} {
		if got := h.Lerp(0, tc.t); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Lerp(0, %v) = %v, want %v", tc.t, got, tc.want)
		}
		if got := h.Lerp(1, tc.t); math.Abs(got+tc.want) > 1e-12 {
			t.Errorf("Lerp(1, %v) = %v, want %v", tc.t, got, -tc.want)
		}
	}
}

// TestPropertyVsBruteForce drives pruned series of several widths and
// the unpruned brute-force shadow through randomized histories —
// duplicated timestamps, bursts, and enough records to compact many
// times — and requires Hold, Lerp and AvgHold to agree with the
// shadow exactly (AvgHold to rounding) at every query time at or
// after the pruning cut, and TailTimes to track the newest records.
func TestPropertyVsBruteForce(t *testing.T) {
	const lookback = 30.0
	for trial := 0; trial < 24; trial++ {
		width := 1 + trial%3
		r := rng.New(uint64(1000 + trial))
		h := New(width)
		var sh shadow
		now := 0.0
		row := make([]float64, width)
		record := func() {
			h.Append(now, row...)
			h.Prune(now - lookback)
			sh.append(now, row)
			tail := h.TailTimes()
			if tail[len(tail)-1] != now || (len(sh.t) > 1 && (len(tail) != 2 || tail[0] != sh.t[len(sh.t)-2])) {
				t.Fatalf("trial %d: TailTimes %v after recording %v", trial, tail, now)
			}
		}
		record()
		n := 600 + trial*400
		for k := 0; k < n; k++ {
			// One record in four shares the previous timestamp exactly.
			if r.Float64() > 0.25 {
				now += r.Exp(8)
			}
			row[0] = math.Max(row[0]+float64(r.Intn(5)-2), 0)
			for i := 1; i < width; i++ {
				row[i] = row[0] + r.Float64()
			}
			record()
		}

		lo := math.Max(now-lookback, 0)
		query := func(k int) float64 {
			qt := lo + r.Float64()*(now+1-lo) // past now exercises the clamp
			if k%10 == 0 {
				if j := sh.idxAt(qt); sh.t[j] >= lo {
					qt = sh.t[j] // hit a record time exactly
				}
			}
			return qt
		}
		for k := 0; k < 300; k++ {
			qt := query(k)
			for i := 0; i < width; i++ {
				if got, want := h.Hold(i, qt), sh.hold(i, qt); got != want {
					t.Fatalf("trial %d: Hold(%d, %v) = %v, want %v", trial, i, qt, got, want)
				}
				if got, want := h.Lerp(i, qt), sh.lerp(i, qt); got != want {
					t.Fatalf("trial %d: Lerp(%d, %v) = %v, want %v", trial, i, qt, got, want)
				}
			}
		}
		for k := 0; k < 300; k++ {
			a, b := query(k), query(k+1)
			if b < a {
				a, b = b, a
			}
			if k%10 == 1 {
				b = a // degenerate point window
			}
			i := k % width
			got, want := h.AvgHold(i, a, b), sh.avgHold(i, a, b)
			if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
				t.Fatalf("trial %d: AvgHold(%d, %v, %v) = %v, want %v", trial, i, a, b, got, want)
			}
		}
	}
}

// TestPruneKeepsLookbackResolvable asserts the pruning invariant
// directly on a long evenly spaced run: the live window stays near the
// lookback size, lookups at the cut and just inside it still match the
// unpruned shadow, and every column stays aligned with the time track
// across compactions.
func TestPruneKeepsLookbackResolvable(t *testing.T) {
	const lookback, dt = 5.0, 0.01
	h := New(2)
	var sh shadow
	now := 0.0
	for k := 0; k < 10000; k++ {
		now = float64(k) * dt
		row := []float64{float64(k), float64(k) / 2}
		h.Append(now, row...)
		h.Prune(now - lookback)
		sh.append(now, row)
	}
	if window := int(lookback/dt) + 2; h.Len() > window {
		t.Fatalf("live window holds %d records for a %d-record lookback", h.Len(), window)
	}
	if len(h.rows) != 2*len(h.t) {
		t.Fatalf("columns diverged across compactions: %d times, %d values", len(h.t), len(h.rows))
	}
	for _, qt := range []float64{now - lookback, now - lookback + 1e-9, now - 2.5, now - dt/2, now} {
		for i := 0; i < 2; i++ {
			if got, want := h.Hold(i, qt), sh.hold(i, qt); got != want {
				t.Errorf("after pruning: Hold(%d, %v) = %v, want %v", i, qt, got, want)
			}
			if got, want := h.Lerp(i, qt), sh.lerp(i, qt); got != want {
				t.Errorf("after pruning: Lerp(%d, %v) = %v, want %v", i, qt, got, want)
			}
		}
	}
	if got, want := h.AvgHold(0, now-lookback, now), sh.avgHold(0, now-lookback, now); math.Abs(got-want) > 1e-9 {
		t.Errorf("after pruning: AvgHold over the lookback window = %v, want %v", got, want)
	}
}

// TestPruneAtBurstCut pins the keep rule at the boundary: with a
// same-time burst sitting exactly on the cut, pruning keeps the record
// before the burst, so Lerp at the cut still interpolates from it (as
// the unpruned series does) and Hold still reads the burst's last row.
// The 200 records before the burst make Prune search for the cut and
// compact.
func TestPruneAtBurstCut(t *testing.T) {
	h := New(1)
	var sh shadow
	add := func(tt, v float64) {
		h.Append(tt, v)
		sh.append(tt, []float64{v})
	}
	for k := 0; k < 200; k++ {
		add(float64(k)/100, float64(k%7))
	}
	add(2, 8)
	add(2, 9)
	add(3, 1)
	add(4, 2)
	h.Prune(2)
	if len(h.t) == len(sh.t) {
		t.Fatal("Prune(2) did not compact away the dead records")
	}
	for _, qt := range []float64{2, 2.5, 3, 4, 5} {
		if got, want := h.Lerp(0, qt), sh.lerp(0, qt); got != want {
			t.Errorf("Lerp(0, %v) = %v after Prune(2), want %v", qt, got, want)
		}
		if got, want := h.Hold(0, qt), sh.hold(0, qt); got != want {
			t.Errorf("Hold(0, %v) = %v after Prune(2), want %v", qt, got, want)
		}
	}
	if h.Len() != 5 {
		t.Errorf("Prune(2) left %d live records, want 5 (the one at t=1.99 onward)", h.Len())
	}
}

// TestCompactionBounded is the regression test for the O(n) history
// shift and for unbounded growth: pruning on every record must keep
// the backing arrays within a constant factor of the live window
// (at most 4 live windows plus 128 records) rather than retaining
// every record, and Reset must empty the series.
func TestCompactionBounded(t *testing.T) {
	const lookback, dt = 0.5, 0.001
	h := New(3)
	now := 0.0
	for k := 0; k < 200000; k++ {
		now = float64(k) * dt
		h.Append(now, now, -now, 1)
		h.Prune(now - lookback)
		if n := len(h.t); n > 4*h.Len()+128 {
			t.Fatalf("record %d: backing arrays hold %d records for %d live ones: compaction regressed", k, n, h.Len())
		}
	}
	window := int(lookback/dt) + 2
	if h.Len() > window {
		t.Fatalf("live window %d records for a %d-record lookback", h.Len(), window)
	}
	if limit := 2 * (4*window + 128); cap(h.t) > limit || cap(h.rows) > 3*limit {
		t.Fatalf("backing arrays hold capacity %d/%d after 200000 records (limit %d per column)", cap(h.t), cap(h.rows), limit)
	}
	h.Reset()
	if h.Len() != 0 || h.Lerp(0, now) != 0 || len(h.TailTimes()) != 0 {
		t.Fatalf("Reset left %d live records", h.Len())
	}
}

// TestSteadyWindowAllocationFree guards the steady state every engine
// runs in: once the backing arrays have grown to the lookback window,
// Append+Prune allocate nothing, at any width.
func TestSteadyWindowAllocationFree(t *testing.T) {
	for _, width := range []int{1, 3} {
		h := New(width)
		row := make([]float64, width)
		now := 0.0
		step := func() {
			now += 0.01
			row[0] = now
			h.Append(now, row...)
			h.Prune(now - 2)
		}
		for k := 0; k < 5000; k++ {
			step()
		}
		if allocs := testing.AllocsPerRun(2000, step); allocs != 0 {
			t.Errorf("width %d: Append+Prune allocated %v times per record in a primed window", width, allocs)
		}
	}
}
