// Package fokkerplanck is a fixture recreating the solver config.
package fokkerplanck

// Config is the solver config; Workers 0 means serial.
type Config struct {
	Mu      float64
	Workers int
}
