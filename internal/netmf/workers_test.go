package netmf

import (
	"testing"

	"fpcc/internal/parallel/paralleltest"
)

// TestUnsetWorkersIsSerial guards "parallelism is granted, never
// assumed": at GOMAXPROCS 2, an engine with Workers unset must step
// with exactly the allocations of a Workers 1 engine (a default that
// resolved GOMAXPROCS would fork across classes every step), and the
// Workers 2 control proves the count sees a fork.
func TestUnsetWorkersIsSerial(t *testing.T) {
	paralleltest.SetGOMAXPROCS(t, 2)
	mallocs := func(workers int) uint64 {
		cfg, err := ParkingLot(ParkingLotConfig{Hops: 3, N: 1000, Delay: 0.2}) // 4 classes
		if err != nil {
			t.Fatal(err)
		}
		cfg.Workers = workers
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var stepErr error
		n := paralleltest.Mallocs(100, func() {
			if err := e.Step(); err != nil {
				stepErr = err
			}
		})
		if stepErr != nil {
			t.Fatal(stepErr)
		}
		return n
	}
	unset, one, two := mallocs(0), mallocs(1), mallocs(2)
	if unset != one {
		t.Errorf("Workers unset: %d allocations in 100 steps, Workers 1: %d; an unset bound must step serially", unset, one)
	}
	if two <= one {
		t.Errorf("control: Workers 2 made %d allocations, Workers 1 %d; the count does not see a fork", two, one)
	}
}
