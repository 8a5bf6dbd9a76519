// Package dde integrates delay differential equations (DDEs) of the
// form
//
//	dy/dt = f(t, y(t), y(t−τ₁), y(t−τ₂), ...)
//
// with constant delays, which is exactly the structure of Section 7 of
// the paper: the sender adjusts its rate from the queue length it
// observed one feedback delay ago,
//
//	dλ/dt = g(Q(t−τ), λ(t)),    dQ/dt = λ(t) − μ.
//
// The integrator is the method of steps with a fixed-step RK4 core: a
// dense history of past states is kept, and delayed values are read by
// linear interpolation between stored samples. Stage evaluations may
// only look back at least one step (the step size must not exceed the
// smallest delay), which keeps the scheme explicit.
package dde

import (
	"fmt"
	"math"

	"fpcc/internal/history"
)

// Lagger provides access to past state values during integration.
type Lagger interface {
	// Lag returns component i of the state at time t−delay, where t is
	// the time of the current right-hand-side evaluation. delay must
	// be >= the solver's step size (checked at Solve time for the
	// declared delays).
	Lag(i int, delay float64) float64
}

// System is the right-hand side of a DDE: it writes dy/dt into dydt,
// reading the current state from y and past states through lag.
// Implementations must not retain the slices or the Lagger.
type System func(t float64, y []float64, lag Lagger, dydt []float64)

// History supplies the pre-initial state: y(t) for t <= t0.
type History func(t float64) []float64

// lagger reads delayed states: y(t) for t <= t0 from the pre-initial
// history, and after t0 by linear interpolation in the solution's
// recent past (clamped to the newest sample, which a delay equal to
// the step can overshoot by a rounding hair).
type lagger struct {
	past history.Series
	pre  History
	t0   float64
	curT float64 // time of the current RHS evaluation
}

// Lag implements Lagger.
func (l *lagger) Lag(i int, delay float64) float64 {
	t := l.curT - delay
	if t <= l.t0 {
		return l.pre(t)[i]
	}
	return l.past.Lerp(i, t)
}

// Result holds the sampled DDE solution.
type Result struct {
	Times  []float64
	States [][]float64
}

// Len returns the number of samples.
func (r *Result) Len() int { return len(r.Times) }

// At returns sample i.
func (r *Result) At(i int) (float64, []float64) { return r.Times[i], r.States[i] }

// Last returns the final sample. It panics on an empty result.
func (r *Result) Last() (float64, []float64) {
	n := len(r.Times)
	return r.Times[n-1], r.States[n-1]
}

// Options configures Solve.
type Options struct {
	// Stride records every Stride-th accepted step into the Result
	// (plus the first and last). Zero means 1 (record every step).
	Stride int
	// Clamp, if non-nil, is applied to the state after every step —
	// used to enforce q >= 0 and λ >= 0 in the congestion systems.
	Clamp func(y []float64)
}

// Solve integrates the DDE from t0 to t1 with fixed RK4 steps of size
// h. delays must list every delay the system will request (used to
// validate h and to size the history window); pre provides y(t) for
// t <= t0 (and y(t0) itself is pre(t0)).
func Solve(f System, pre History, delays []float64, t0, t1, h float64, opts Options) (*Result, error) {
	switch {
	case !(h > 0):
		return nil, fmt.Errorf("dde: non-positive step %v", h)
	case t1 < t0:
		return nil, fmt.Errorf("dde: reversed interval [%v, %v]", t0, t1)
	case pre == nil:
		return nil, fmt.Errorf("dde: nil history")
	}
	maxDelay := 0.0
	for _, d := range delays {
		if !(d >= 0) {
			return nil, fmt.Errorf("dde: negative delay %v", d)
		}
		if d > 0 && d < h {
			return nil, fmt.Errorf("dde: step %v exceeds delay %v; the method of steps requires h <= min delay", h, d)
		}
		if d > maxDelay {
			maxDelay = d
		}
	}
	stride := opts.Stride
	if stride <= 0 {
		stride = 1
	}

	y0 := pre(t0)
	dim := len(y0)
	y := append([]float64(nil), y0...)
	lag := &lagger{past: history.New(dim), pre: pre, t0: t0}
	lag.past.Append(t0, y...)

	res := &Result{}
	record := func(t float64, y []float64) {
		res.Times = append(res.Times, t)
		res.States = append(res.States, append([]float64(nil), y...))
	}
	record(t0, y)

	k1 := make([]float64, dim)
	k2 := make([]float64, dim)
	k3 := make([]float64, dim)
	k4 := make([]float64, dim)
	tmp := make([]float64, dim)

	eval := func(t float64, y, dydt []float64) {
		lag.curT = t
		f(t, y, lag, dydt)
	}

	t := t0
	step := 0
	for t < t1 {
		hh := h
		if t+hh > t1 {
			hh = t1 - t
		}
		if hh < 1e-15*(1+math.Abs(t)) {
			break
		}
		eval(t, y, k1)
		for i := 0; i < dim; i++ {
			tmp[i] = y[i] + 0.5*hh*k1[i]
		}
		eval(t+0.5*hh, tmp, k2)
		for i := 0; i < dim; i++ {
			tmp[i] = y[i] + 0.5*hh*k2[i]
		}
		eval(t+0.5*hh, tmp, k3)
		for i := 0; i < dim; i++ {
			tmp[i] = y[i] + hh*k3[i]
		}
		eval(t+hh, tmp, k4)
		for i := 0; i < dim; i++ {
			y[i] += hh / 6 * (k1[i] + 2*k2[i] + 2*k3[i] + k4[i])
		}
		t += hh
		if opts.Clamp != nil {
			opts.Clamp(y)
		}
		// Keep the history window: everything older than maxDelay plus
		// a couple of steps can go.
		lag.past.Append(t, y...)
		lag.past.Prune(t - maxDelay - 2*h)
		step++
		if step%stride == 0 || t >= t1 {
			record(t, y)
		}
	}
	if res.Times[len(res.Times)-1] < t {
		record(t, y)
	}
	return res, nil
}
