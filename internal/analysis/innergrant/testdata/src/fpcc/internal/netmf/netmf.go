// Package netmf is a fixture recreating the networked engine config.
package netmf

// Config is the engine config; Workers 0 means serial.
type Config struct {
	Bins    int
	Workers int
}
