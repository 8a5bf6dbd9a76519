// Package sde is a fixture recreating the ensemble config.
package sde

// Config is the ensemble config; Workers 0 means serial.
type Config struct {
	Particles int
	Workers   int
}
