package meanfield

import (
	"math"
	"testing"
)

// runParticles advances a fresh particle system and returns its queue
// trajectory (one sample per step) plus the final class moments.
func runParticles(t *testing.T, n int, seed uint64, workers, steps int) ([]float64, []float64) {
	t.Helper()
	p, err := NewParticles(testConfig(n), seed, workers)
	if err != nil {
		t.Fatal(err)
	}
	traj := make([]float64, 0, steps)
	for i := 0; i < steps; i++ {
		if err := p.Step(); err != nil {
			t.Fatal(err)
		}
		traj = append(traj, p.Queue())
	}
	m := p.ClassMoments(0)
	return traj, []float64{m.Mean(), m.Variance(), m.Min(), m.Max()}
}

// The worker count shards the fixed-size chunks differently across
// goroutines but must never change a single bit of the results: every
// chunk owns its rng.Mix-derived stream and all reductions run in
// chunk-index order.
func TestParticlesDeterministicAcrossWorkers(t *testing.T) {
	const n = 10000 // 3 chunks of 4096
	t1, m1 := runParticles(t, n, 99, 1, 300)
	t8, m8 := runParticles(t, n, 99, 8, 300)
	for i := range t1 {
		if t1[i] != t8[i] {
			t.Fatalf("queue trajectory diverges at step %d: %v vs %v (workers 1 vs 8)", i, t1[i], t8[i])
		}
	}
	for i := range m1 {
		if m1[i] != m8[i] {
			t.Fatalf("class moments differ between worker counts: %v vs %v", m1, m8)
		}
	}
}

// Same seed reproduces the run exactly; a different seed must not.
func TestParticlesSeedReproducibility(t *testing.T) {
	a, _ := runParticles(t, 5000, 7, 4, 200)
	b, _ := runParticles(t, 5000, 7, 2, 200)
	c, _ := runParticles(t, 5000, 8, 4, 200)
	same, diff := true, false
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
		if a[i] != c[i] {
			diff = true
		}
	}
	if !same {
		t.Error("same seed did not reproduce the queue trajectory")
	}
	if !diff {
		t.Error("different seeds produced identical trajectories")
	}
}

// Particle moments merged from the per-chunk Welford states must
// match a direct pass over the flat rate array.
func TestParticlesChunkedMomentsMatchDirect(t *testing.T) {
	p, err := NewParticles(testConfig(9000), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(2); err != nil {
		t.Fatal(err)
	}
	m := p.ClassMoments(0)
	rates := p.Rates(0)
	if m.Count() != len(rates) {
		t.Fatalf("moment count %d != %d particles", m.Count(), len(rates))
	}
	var sum float64
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, l := range rates {
		sum += l
		lo = math.Min(lo, l)
		hi = math.Max(hi, l)
	}
	mean := sum / float64(len(rates))
	var ss float64
	for _, l := range rates {
		ss += (l - mean) * (l - mean)
	}
	if math.Abs(m.Mean()-mean) > 1e-12 {
		t.Errorf("merged mean %v != direct %v", m.Mean(), mean)
	}
	if math.Abs(m.Variance()-ss/float64(len(rates))) > 1e-9 {
		t.Errorf("merged variance %v != direct %v", m.Variance(), ss/float64(len(rates)))
	}
	if m.Min() != lo || m.Max() != hi {
		t.Errorf("merged min/max %v/%v != direct %v/%v", m.Min(), m.Max(), lo, hi)
	}
}

// Rates must stay inside [0, LMax] under drift and reflection.
func TestParticlesRatesStayInDomain(t *testing.T) {
	cfg := testConfig(2000)
	cfg.Classes[0].SigmaL = 1.5 // strong noise exercises both reflections
	p, err := NewParticles(cfg, 11, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(5); err != nil {
		t.Fatal(err)
	}
	for _, l := range p.Rates(0) {
		if l < 0 || l > cfg.LMax {
			t.Fatalf("rate %v escaped [0, %v]", l, cfg.LMax)
		}
	}
	h, err := p.Histogram(0, 40)
	if err != nil {
		t.Fatal(err)
	}
	if h.Underflow != 0 || h.Overflow != 0 {
		t.Fatalf("histogram under/overflow %d/%d, want 0/0", h.Underflow, h.Overflow)
	}
}
