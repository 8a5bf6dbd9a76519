// Package experiments is a fixture registry: every engine config
// literal must name its worker bound.
package experiments

import (
	"fpcc/internal/fokkerplanck"
	"fpcc/internal/meanfield"
	"fpcc/internal/netmf"
	"fpcc/internal/netsim"
	"fpcc/internal/sde"
	"fpcc/internal/sweep"
)

// noWorkers is an untyped constant zero.
const noWorkers = 0

// Omitted builds one literal of every checked type without Workers.
func Omitted() {
	_ = fokkerplanck.Config{Mu: 1}      // want `innergrant: fokkerplanck\.Config literal omits Workers`
	_ = sde.Config{Particles: 10}       // want `innergrant: sde\.Config literal omits Workers`
	_ = meanfield.Config{Mu: 1}         // want `innergrant: meanfield\.Config literal omits Workers`
	_ = &netmf.Config{Bins: 8}          // want `innergrant: netmf\.Config literal omits Workers`
	_ = sweep.Config{}                  // want `innergrant: sweep\.Config literal omits Workers`
	_ = netsim.SweepConfig{BaseSeed: 1} // want `innergrant: netsim\.SweepConfig literal omits Workers`
	_ = []meanfield.Config{
		{Mu: 1}, // want `innergrant: meanfield\.Config literal omits Workers`
		{Mu: 2, Workers: 1},
	}
}

// Named sets Workers everywhere: the grant where the engine owns it,
// 1 inside sweep cells.
func Named(inner int) {
	_, _ = sweep.Run(sweep.Config{BaseSeed: 1, Workers: inner}, func(i int) (float64, error) {
		cfg := meanfield.Config{Mu: 1, Workers: 1}
		p, err := meanfield.NewParticles(cfg, uint64(i), 1)
		_ = p
		return cfg.Mu, err
	})
	_ = fokkerplanck.Config{Mu: 1, Workers: inner}
	_ = sde.Config{10, inner} // positional: every field is set
	_ = netsim.Config{Seed: 1}
}

// Particles passes the worker bound positionally.
func Particles(inner int) {
	_, _ = meanfield.NewParticles(meanfield.Config{Workers: 1}, 1, 0)         // want `innergrant: NewParticles with workers 0`
	_, _ = meanfield.NewParticles(meanfield.Config{Workers: 1}, 1, noWorkers) // want `innergrant: NewParticles with workers 0`
	_, _ = meanfield.NewParticles(meanfield.Config{Workers: 1}, 1, inner)
}

// Justified leaves the default on purpose and says why.
func Justified() {
	//fpcc:innergrant -- fixture: a serial reference solve documented in place
	_ = fokkerplanck.Config{Mu: 1}
}
