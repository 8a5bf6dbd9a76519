package meanfield

import (
	"math"
	"testing"

	"fpcc/internal/control"
	"fpcc/internal/des"
)

// windowAvg wraps SteadyStats for tests: it returns the window-
// averaged queue, failing the test on any step error.
func windowAvg(t *testing.T, s Stepper, warm, horizon float64) float64 {
	t.Helper()
	q, _, err := SteadyStats(s, warm, horizon, nil)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestParticleDensityConvergence is the tentpole's acceptance
// criterion: the kinetic (density) solution must reproduce the
// steady-state mean queue of a 10⁴-source stochastic particle
// ensemble within 2%, and the particle-to-density gap must not grow
// as N increases (the mean-field limit).
func TestParticleDensityConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("steps 10^4 particles through 6000 Euler-Maruyama steps")
	}
	cfg := testConfig(10000)
	cfg.SecondOrder = true
	d, err := NewDensity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dq := windowAvg(t, d, 30, 60)
	dq /= 10000

	var gaps []float64
	for _, n := range []int{100, 10000} {
		p, err := NewParticles(testConfig(n), 42, 2)
		if err != nil {
			t.Fatal(err)
		}
		pq := windowAvg(t, p, 30, 60)
		pq /= float64(n)
		gaps = append(gaps, math.Abs(pq-dq)/dq)
	}
	if gaps[1] > 0.02 {
		t.Errorf("N=10⁴ particle vs density steady mean queue gap %.3f%% exceeds 2%%", 100*gaps[1])
	}
	if gaps[1] > gaps[0]+0.02 {
		t.Errorf("gap grows with N: %.3f%% (N=100) -> %.3f%% (N=10⁴)", 100*gaps[0], 100*gaps[1])
	}
}

// TestDensityVsDES cross-checks the kinetic engine against the
// packet-level discrete-event simulator at an N where both are
// feasible: 40 Poisson sources sharing one bottleneck. The DES queue
// carries packet-level noise the fluid-limit queue does not, so the
// tolerance is looser than the particle comparison (measured gap
// ~1.7%; asserted at 5%).
func TestDensityVsDES(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 200-second packet-level simulation")
	}
	const (
		n     = 40
		share = 10.0
		qhat  = 80.0
	)
	law := control.AIMD{C0: 5, C1: 0.5, QHat: qhat}

	srcs := make([]des.SourceConfig, n)
	for i := range srcs {
		srcs[i] = des.SourceConfig{Law: law, Interval: 0.05, Lambda0: share}
	}
	sim, err := des.New(des.Config{Mu: n * share, Sources: srcs, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(200, 50)
	if err != nil {
		t.Fatal(err)
	}
	desQ := res.QueueStats.Mean()

	d, err := NewDensity(Config{
		Classes: []Class{{Law: law, N: n, Lambda0: share, InitStd: 1, SigmaL: 1}},
		Mu:      n * share, LMax: 40, Bins: 160, Dt: 0.01, SecondOrder: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	mfQ := windowAvg(t, d, 50, 200)

	if gap := math.Abs(mfQ-desQ) / desQ; gap > 0.05 {
		t.Errorf("density mean queue %.2f vs DES %.2f: gap %.1f%% exceeds 5%%", mfQ, desQ, 100*gap)
	}
}
