package dde

import (
	"math"
	"testing"
	"testing/quick"
)

// TestNoDelayMatchesODE: with all lags reading far-past constant
// history the DDE reduces to an ODE we can check in closed form:
// dy/dt = -y, y(0) = 1.
func TestNoDelayMatchesODE(t *testing.T) {
	f := func(tt float64, y []float64, lag Lagger, dydt []float64) {
		dydt[0] = -y[0]
	}
	hist := func(tt float64) []float64 { return []float64{1} }
	res, err := Solve(f, hist, nil, 0, 2, 1e-3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, y := res.Last()
	if want := math.Exp(-2); math.Abs(y[0]-want) > 1e-9 {
		t.Fatalf("y(2) = %v, want %v", y[0], want)
	}
}

// TestLinearDelayEquation solves dy/dt = -y(t-1) with constant
// history y(t) = 1 for t <= 0. On [0, 1] the exact solution is
// y(t) = 1 - t; on [1, 2] it is y(t) = 1 - t + (t-1)²/2.
func TestLinearDelayEquation(t *testing.T) {
	f := func(tt float64, y []float64, lag Lagger, dydt []float64) {
		dydt[0] = -lag.Lag(0, 1)
	}
	hist := func(tt float64) []float64 { return []float64{1} }
	res, err := Solve(f, hist, []float64{1}, 0, 2, 1e-3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	exact := func(tt float64) float64 {
		if tt <= 1 {
			return 1 - tt
		}
		return 1 - tt + (tt-1)*(tt-1)/2
	}
	for i := 0; i < res.Len(); i += 100 {
		tt, y := res.At(i)
		if want := exact(tt); math.Abs(y[0]-want) > 1e-6 {
			t.Fatalf("y(%v) = %v, want %v", tt, y[0], want)
		}
	}
	_, yEnd := res.Last()
	if want := exact(2.0); math.Abs(yEnd[0]-want) > 1e-6 {
		t.Fatalf("y(2) = %v, want %v", yEnd[0], want)
	}
}

// TestHayesOscillation: dy/dt = -(pi/2)·y(t-1) is the classical
// marginally oscillatory case (Hayes criterion): the solution tends to
// cos-like sustained oscillation. Check that it oscillates (multiple
// sign changes) rather than decaying to zero quickly.
func TestHayesOscillation(t *testing.T) {
	f := func(tt float64, y []float64, lag Lagger, dydt []float64) {
		dydt[0] = -math.Pi / 2 * lag.Lag(0, 1)
	}
	hist := func(tt float64) []float64 { return []float64{1} }
	res, err := Solve(f, hist, []float64{1}, 0, 30, 1e-3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	signChanges := 0
	prev := 1.0
	maxLate := 0.0
	for i := 0; i < res.Len(); i++ {
		tt, y := res.At(i)
		if y[0]*prev < 0 {
			signChanges++
		}
		if y[0] != 0 {
			prev = y[0]
		}
		if tt > 20 && math.Abs(y[0]) > maxLate {
			maxLate = math.Abs(y[0])
		}
	}
	if signChanges < 10 {
		t.Fatalf("only %d sign changes, want sustained oscillation", signChanges)
	}
	// Marginal case: amplitude persists (neither exploding nor dying).
	if maxLate < 0.1 || maxLate > 10 {
		t.Fatalf("late amplitude %v, want O(1) sustained oscillation", maxLate)
	}
}

// TestDelayStabilityThreshold: for dy/dt = -a·y(t-1), solutions decay
// when a < pi/2 and grow when a > pi/2 (Hayes). Verify both sides.
func TestDelayStabilityThreshold(t *testing.T) {
	run := func(a float64) float64 {
		f := func(tt float64, y []float64, lag Lagger, dydt []float64) {
			dydt[0] = -a * lag.Lag(0, 1)
		}
		hist := func(tt float64) []float64 { return []float64{1} }
		res, err := Solve(f, hist, []float64{1}, 0, 40, 1e-3, Options{})
		if err != nil {
			t.Fatal(err)
		}
		maxLate := 0.0
		for i := 0; i < res.Len(); i++ {
			tt, y := res.At(i)
			if tt > 30 && math.Abs(y[0]) > maxLate {
				maxLate = math.Abs(y[0])
			}
		}
		return maxLate
	}
	if amp := run(1.0); amp > 0.5 {
		t.Errorf("a=1.0 (stable side): late amplitude %v, want decay", amp)
	}
	if amp := run(2.2); amp < 2 {
		t.Errorf("a=2.2 (unstable side): late amplitude %v, want growth", amp)
	}
}

func TestSolveValidation(t *testing.T) {
	f := func(tt float64, y []float64, lag Lagger, dydt []float64) { dydt[0] = 0 }
	hist := func(tt float64) []float64 { return []float64{0} }
	if _, err := Solve(f, hist, nil, 0, 1, 0, Options{}); err == nil {
		t.Error("accepted zero step")
	}
	if _, err := Solve(f, hist, nil, 1, 0, 0.1, Options{}); err == nil {
		t.Error("accepted reversed interval")
	}
	if _, err := Solve(f, nil, nil, 0, 1, 0.1, Options{}); err == nil {
		t.Error("accepted nil history")
	}
	if _, err := Solve(f, hist, []float64{-1}, 0, 1, 0.1, Options{}); err == nil {
		t.Error("accepted negative delay")
	}
	if _, err := Solve(f, hist, []float64{0.01}, 0, 1, 0.1, Options{}); err == nil {
		t.Error("accepted step larger than delay")
	}
}

func TestStrideRecording(t *testing.T) {
	f := func(tt float64, y []float64, lag Lagger, dydt []float64) { dydt[0] = 1 }
	hist := func(tt float64) []float64 { return []float64{0} }
	dense, err := Solve(f, hist, nil, 0, 1, 1e-3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := Solve(f, hist, nil, 0, 1, 1e-3, Options{Stride: 100})
	if err != nil {
		t.Fatal(err)
	}
	if sparse.Len() >= dense.Len()/50 {
		t.Fatalf("stride 100 recorded %d samples vs dense %d", sparse.Len(), dense.Len())
	}
	// Both must end at the same final state.
	_, yd := dense.Last()
	_, ys := sparse.Last()
	if math.Abs(yd[0]-ys[0]) > 1e-12 {
		t.Fatalf("final states differ: %v vs %v", yd[0], ys[0])
	}
	td, _ := dense.Last()
	ts, _ := sparse.Last()
	if td != ts {
		t.Fatalf("final times differ: %v vs %v", td, ts)
	}
}

func TestClampOption(t *testing.T) {
	// dy/dt = -10 with clamp at zero must stay non-negative.
	f := func(tt float64, y []float64, lag Lagger, dydt []float64) { dydt[0] = -10 }
	hist := func(tt float64) []float64 { return []float64{1} }
	res, err := Solve(f, hist, nil, 0, 1, 1e-3, Options{
		Clamp: func(y []float64) {
			if y[0] < 0 {
				y[0] = 0
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < res.Len(); i++ {
		_, y := res.At(i)
		if y[0] < 0 {
			t.Fatalf("clamped state went negative: %v", y[0])
		}
	}
	_, yEnd := res.Last()
	if yEnd[0] != 0 {
		t.Fatalf("final state %v, want 0", yEnd[0])
	}
}

// TestHistoryIsUsed: a lag reaching before t0 must read the supplied
// history function, including time dependence.
func TestHistoryIsUsed(t *testing.T) {
	// dy/dt = y(t-2); history y(t) = t for t <= 0, y(0) = 0.
	// On [0, 2]: dy/dt = t - 2, y(t) = t²/2 - 2t.
	f := func(tt float64, y []float64, lag Lagger, dydt []float64) {
		dydt[0] = lag.Lag(0, 2)
	}
	hist := func(tt float64) []float64 { return []float64{tt} }
	res, err := Solve(f, hist, []float64{2}, 0, 2, 1e-3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, y := res.Last()
	if want := 2.0*2/2 - 2*2; math.Abs(y[0]-want) > 1e-6 {
		t.Fatalf("y(2) = %v, want %v", y[0], want)
	}
}

// TestPruningKeepsAccuracy: a long integration with pruning enabled
// must agree with the closed-form solution at the end (the window
// retains everything the lags need).
func TestPruningKeepsAccuracy(t *testing.T) {
	f := func(tt float64, y []float64, lag Lagger, dydt []float64) {
		dydt[0] = -0.5 * lag.Lag(0, 1)
	}
	hist := func(tt float64) []float64 { return []float64{1} }
	res, err := Solve(f, hist, []float64{1}, 0, 100, 1e-3, Options{Stride: 50})
	if err != nil {
		t.Fatal(err)
	}
	// a = 0.5 < pi/2 is asymptotically stable: solution decays.
	_, y := res.Last()
	if math.Abs(y[0]) > 1e-3 {
		t.Fatalf("y(100) = %v, want decay toward 0", y[0])
	}
}

// Property: two-component uncoupled system integrates each component
// independently (lag bookkeeping does not cross wires).
func TestComponentIndependenceProperty(t *testing.T) {
	f := func(aRaw, bRaw uint8) bool {
		a := float64(aRaw%20)/10 + 0.1
		b := float64(bRaw%20)/10 + 0.1
		sys := func(tt float64, y []float64, lag Lagger, dydt []float64) {
			dydt[0] = -a * lag.Lag(0, 0.5)
			dydt[1] = -b * lag.Lag(1, 0.5)
		}
		hist := func(tt float64) []float64 { return []float64{1, 2} }
		res, err := Solve(sys, hist, []float64{0.5, 0.5}, 0, 3, 1e-3, Options{})
		if err != nil {
			return false
		}
		// Solve each scalar equation separately and compare.
		solo := func(coef, y0 float64) float64 {
			s := func(tt float64, y []float64, lag Lagger, dydt []float64) {
				dydt[0] = -coef * lag.Lag(0, 0.5)
			}
			h := func(tt float64) []float64 { return []float64{y0} }
			r, err := Solve(s, h, []float64{0.5}, 0, 3, 1e-3, Options{})
			if err != nil {
				return math.NaN()
			}
			_, y := r.Last()
			return y[0]
		}
		_, y := res.Last()
		return math.Abs(y[0]-solo(a, 1)) < 1e-9 && math.Abs(y[1]-solo(b, 2)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestSolveAllocationsIndependentOfHorizon: the lag history is pruned
// to the lookback window on every step and stores flat rows, so with
// the same number of recorded samples a ten times longer solve must
// not allocate more — with delays and without.
func TestSolveAllocationsIndependentOfHorizon(t *testing.T) {
	const h = 1.0 / 64 // dyadic: t accumulates exactly, so both horizons take whole steps
	pre := []float64{1, 0}
	hist := func(tt float64) []float64 { return pre }
	cases := []struct {
		name   string
		f      System
		delays []float64
	}{
		{"delay-free", func(tt float64, y []float64, lag Lagger, dydt []float64) {
			dydt[0], dydt[1] = y[1], -y[0]
		}, nil},
		{"delayed", func(tt float64, y []float64, lag Lagger, dydt []float64) {
			dydt[0], dydt[1] = -lag.Lag(0, 1), -lag.Lag(1, 0.5)
		}, []float64{1, 0.5}},
	}
	for _, tc := range cases {
		mallocs := func(t1 float64) float64 {
			stride := int(t1 / h / 10) // 11 recorded samples at any horizon
			return testing.AllocsPerRun(3, func() {
				if _, err := Solve(tc.f, hist, tc.delays, 0, t1, h, Options{Stride: stride}); err != nil {
					t.Fatal(err)
				}
			})
		}
		short, long := mallocs(10), mallocs(100)
		if long > short {
			t.Errorf("%s: Solve allocates %v times to t1=100 but %v to t1=10", tc.name, long, short)
		}
	}
}

func BenchmarkSolveDelayed(b *testing.B) {
	f := func(tt float64, y []float64, lag Lagger, dydt []float64) {
		dydt[0] = -lag.Lag(0, 1)
	}
	hist := func(tt float64) []float64 { return []float64{1} }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(f, hist, []float64{1}, 0, 10, 1e-3, Options{Stride: 100}); err != nil {
			b.Fatal(err)
		}
	}
}
