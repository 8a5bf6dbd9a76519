package meanfield

import (
	"runtime"
	"testing"
	"time"
)

// The headline scaling claim: stepping a million-source population on
// the density engine costs O(classes × bins), independent of N.
func BenchmarkDensityStepMillion(b *testing.B) {
	cfg := testConfig(1_000_000)
	cfg.SecondOrder = true
	d, err := NewDensity(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// The finite-N comparison point: one step of the SoA particle backend
// at N = 10⁴ (its practical sweet spot).
func BenchmarkParticlesStep10k(b *testing.B) {
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		name := "workers=max"
		if workers == 1 {
			name = "workers=1"
		}
		b.Run(name, func(b *testing.B) {
			p, err := NewParticles(testConfig(10_000), 1, workers)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestDensityStepSpeedup asserts the acceptance bound: a 10⁶-source
// density step must run at least 10× faster than a 10⁴-source
// particle step (measured headroom is ~50-100×, so the 10× bound has
// wide margin against scheduler noise).
func TestDensityStepSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison")
	}
	const steps = 200
	cfg := testConfig(1_000_000)
	cfg.SecondOrder = true
	d, err := NewDensity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewParticles(testConfig(10_000), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Warm both up so one-time costs stay out of the measurement.
	for i := 0; i < 10; i++ {
		if err := d.Step(); err != nil {
			t.Fatal(err)
		}
		if err := p.Step(); err != nil {
			t.Fatal(err)
		}
	}
	t0 := time.Now()
	for i := 0; i < steps; i++ {
		if err := d.Step(); err != nil {
			t.Fatal(err)
		}
	}
	densityPer := time.Since(t0) / steps
	t0 = time.Now()
	for i := 0; i < steps; i++ {
		if err := p.Step(); err != nil {
			t.Fatal(err)
		}
	}
	particlePer := time.Since(t0) / steps
	t.Logf("density N=10⁶: %v/step; particles N=10⁴: %v/step (ratio %.1fx)",
		densityPer, particlePer, float64(particlePer)/float64(densityPer))
	if particlePer < 10*densityPer {
		t.Errorf("density step (%v) is not ≥10x faster than the 10⁴-particle step (%v)",
			densityPer, particlePer)
	}
}
