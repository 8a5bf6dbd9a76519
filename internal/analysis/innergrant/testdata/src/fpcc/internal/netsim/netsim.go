// Package netsim is a fixture recreating the packet simulator's sweep
// config, and a package outside internal/experiments that may leave
// Workers unset.
package netsim

import "fpcc/internal/sweep"

// Config is a simulation; it has no worker bound.
type Config struct {
	Seed uint64
}

// SweepConfig is a netsim sweep; Workers 0 means serial.
type SweepConfig struct {
	BaseSeed uint64
	Workers  int
}

// Sweep runs the grid. Engine packages are outside the check: they
// pass their caller's bound through.
func Sweep(cfg SweepConfig) ([]int, error) {
	return sweep.Run(sweep.Config{BaseSeed: cfg.BaseSeed}, func(i int) (int, error) { return i, nil })
}
