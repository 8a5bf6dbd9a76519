package meanfield

import (
	"testing"

	"fpcc/internal/parallel/paralleltest"
)

// Parallelism is granted, never assumed: a zero worker bound means
// serial whatever GOMAXPROCS is. These guards run at GOMAXPROCS 2, so a
// default that resolved GOMAXPROCS would fork on every step and
// allocate for it; each Workers/workers 2 control run proves the count
// sees a fork.

// stepMallocs counts the heap allocations of 100 steady-state steps
// (the fewest over the rounds paralleltest.Mallocs measures).
func stepMallocs(t *testing.T, s Stepper) uint64 {
	t.Helper()
	var stepErr error
	n := paralleltest.Mallocs(100, func() {
		if err := s.Step(); err != nil {
			stepErr = err
		}
	})
	if stepErr != nil {
		t.Fatal(stepErr)
	}
	return n
}

func TestDensityUnsetWorkersIsSerial(t *testing.T) {
	paralleltest.SetGOMAXPROCS(t, 2)
	mallocs := func(workers int) uint64 {
		cfg := threeClassConfig()
		cfg.Workers = workers
		d, err := NewDensity(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return stepMallocs(t, d)
	}
	unset, one, two := mallocs(0), mallocs(1), mallocs(2)
	if unset != one {
		t.Errorf("Workers unset: %d allocations in 100 steps, Workers 1: %d; an unset bound must step serially", unset, one)
	}
	if two <= one {
		t.Errorf("control: Workers 2 made %d allocations, Workers 1 %d; the count does not see a fork", two, one)
	}
}

// TestParticlesZeroWorkersIsSerial: NewParticles chunks on sweep.Map,
// which spawns one goroutine per worker and allocates one closure per
// goroutine, so equal allocation counts mean equal goroutine counts.
func TestParticlesZeroWorkersIsSerial(t *testing.T) {
	paralleltest.SetGOMAXPROCS(t, 2)
	mallocs := func(workers int) uint64 {
		p, err := NewParticles(testConfig(10000), 1, workers) // 3 chunks
		if err != nil {
			t.Fatal(err)
		}
		return stepMallocs(t, p)
	}
	zero, one, two := mallocs(0), mallocs(1), mallocs(2)
	if zero != one {
		t.Errorf("workers 0: %d allocations in 100 steps, workers 1: %d; a zero bound must step serially", zero, one)
	}
	if two <= one {
		t.Errorf("control: workers 2 made %d allocations, workers 1 %d; the count does not see a fork", two, one)
	}
}
