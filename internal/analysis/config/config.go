// Package config centralizes the package allowlists the fpcc
// analyzers share: which packages are deterministic engine code
// (where wall clocks are forbidden and recorder call sites must be
// gated), which render output (where map iteration order leaks into
// emitted bytes), and which own their contracts' implementations
// (and are therefore exempt from the checks built on them).
//
// The lists are spelled as canonical import paths of this module so
// the same analyzers apply to the real tree and to analysistest
// fixtures that recreate the paths under their own roots.
package config

import "strings"

// Module is the module path of this repository.
const Module = "fpcc"

// EnginePackages are the deterministic sim-clock packages: every
// package whose computations feed experiment tables. Wall-clock reads
// (walltime) are forbidden here, and obs.Recorder call sites that
// compute probe arguments must be gated behind Enabled/ProbeDue/
// Invariants (obsgate), so the disabled-observability path stays one
// predictable branch per site.
var EnginePackages = []string{
	Module + "/internal/characteristics",
	Module + "/internal/control",
	Module + "/internal/dde",
	Module + "/internal/des",
	Module + "/internal/eventq",
	Module + "/internal/experiments",
	Module + "/internal/fluid",
	Module + "/internal/fokkerplanck",
	Module + "/internal/grid",
	Module + "/internal/linalg",
	Module + "/internal/markov",
	Module + "/internal/meanfield",
	Module + "/internal/netmf",
	Module + "/internal/netsim",
	Module + "/internal/ode",
	Module + "/internal/parallel",
	Module + "/internal/queue",
	Module + "/internal/rng",
	Module + "/internal/sde",
	Module + "/internal/stability",
	Module + "/internal/stats",
	Module + "/internal/sweep",
	Module + "/internal/traffic",
}

// EmissionPackages render or stream deterministic output: experiment
// tables, sweep CSV/JSON, obs summaries/traces/metrics. Iterating a
// map here without sorting (or copying into another map) is the
// Recorder.SpanSeconds bug class: byte-unstable output.
var EmissionPackages = []string{
	Module + "/internal/experiments",
	Module + "/internal/netsim",
	Module + "/internal/obs",
	Module + "/internal/obs/chrometrace",
	Module + "/internal/obs/obscli",
	Module + "/internal/obs/obshttp",
	Module + "/internal/sweep",
	Module + "/cmd/benchreport",
}

// SeedflowExempt packages may touch math/rand: only internal/rng,
// which owns the repository's generator and derives every stream.
var SeedflowExempt = []string{
	Module + "/internal/rng",
}

// SharedwriteExempt packages host the fork-join frameworks
// themselves; their own implementations legitimately write captured
// state (claim counters, block-indexed partial arrays) inside the
// closures they spawn.
var SharedwriteExempt = []string{
	Module + "/internal/parallel",
	Module + "/internal/sweep",
}

// ObsPackage is the observability package whose *Recorder methods
// must begin with the inlineable nil-receiver guard.
var ObsPackage = Module + "/internal/obs"

// ParallelPackage and SweepPackage locate the fork-join entry points
// the sharedwrite analyzer watches.
var (
	ParallelPackage = Module + "/internal/parallel"
	SweepPackage    = Module + "/internal/sweep"
)

// ExperimentsPackage is the experiment registry, where the innergrant
// analyzer requires every engine config to name its worker bound.
var ExperimentsPackage = Module + "/internal/experiments"

// WorkerConfigs are the engine and pool configuration types whose
// Workers field reads 0 as serial, keyed by package path: a literal
// of one of them in ExperimentsPackage must set Workers (innergrant).
var WorkerConfigs = map[string]string{
	Module + "/internal/fokkerplanck": "Config",
	Module + "/internal/sde":          "Config",
	Module + "/internal/meanfield":    "Config",
	Module + "/internal/netmf":        "Config",
	Module + "/internal/sweep":        "Config",
	Module + "/internal/netsim":       "SweepConfig",
}

// MeanfieldPackage hosts NewParticles, whose worker bound is a
// positional argument (innergrant flags a constant 0 there).
var MeanfieldPackage = Module + "/internal/meanfield"

// In reports whether pkgPath is one of the listed packages.
func In(pkgPath string, list []string) bool {
	for _, p := range list {
		if pkgPath == p {
			return true
		}
	}
	return false
}

// UnderModule reports whether pkgPath belongs to this module (the
// analyzers' contracts do not apply to testdata fixtures of other
// roots or to the standard library).
func UnderModule(pkgPath string) bool {
	return pkgPath == Module || strings.HasPrefix(pkgPath, Module+"/")
}
