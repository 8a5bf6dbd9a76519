package sde

import (
	"testing"

	"fpcc/internal/parallel/paralleltest"
)

// TestUnsetWorkersIsSerial guards "parallelism is granted, never
// assumed": at GOMAXPROCS 2, an ensemble with Workers unset must step
// with exactly the allocations of a Workers 1 ensemble (a default that
// resolved GOMAXPROCS would fork across chunks every step), and the
// Workers 2 control proves the count sees a fork.
func TestUnsetWorkersIsSerial(t *testing.T) {
	paralleltest.SetGOMAXPROCS(t, 2)
	mallocs := func(workers int) uint64 {
		cfg := baseConfig()
		cfg.Particles = 3 * chunkSize // three chunks to fork over
		cfg.Workers = workers
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return paralleltest.Mallocs(100, e.Step)
	}
	unset, one, two := mallocs(0), mallocs(1), mallocs(2)
	if unset != one {
		t.Errorf("Workers unset: %d allocations in 100 steps, Workers 1: %d; an unset bound must step serially", unset, one)
	}
	if two <= one {
		t.Errorf("control: Workers 2 made %d allocations, Workers 1 %d; the count does not see a fork", two, one)
	}
}
