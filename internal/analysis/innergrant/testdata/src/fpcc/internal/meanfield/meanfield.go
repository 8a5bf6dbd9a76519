// Package meanfield is a fixture recreating the density config and
// the particle constructor with its positional worker bound.
package meanfield

// Config is the density config; Workers 0 means serial.
type Config struct {
	Mu      float64
	Workers int
}

// Particles is the finite-N backend.
type Particles struct{ workers int }

// NewParticles builds the particle backend; workers 0 means serial.
func NewParticles(cfg Config, seed uint64, workers int) (*Particles, error) {
	return &Particles{workers: workers}, nil
}
