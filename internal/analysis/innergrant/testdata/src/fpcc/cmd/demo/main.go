// Command demo is outside internal/experiments: an omitted Workers is
// its own business (a CLI resolves its -workers flag itself).
package main

import "fpcc/internal/meanfield"

func main() {
	_ = meanfield.Config{Mu: 1}
	_, _ = meanfield.NewParticles(meanfield.Config{}, 1, 0)
}
