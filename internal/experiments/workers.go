package experiments

import "runtime"

// This file is the inner half of the suite's two-level scheduler.
// The suite-level worker knob (SuiteConfig.Workers) shards
// experiments across outer workers; each experiment additionally
// receives an inner-worker grant — the bound it passes to the solver
// and ensemble pools it runs internally (Fokker-Planck row sweeps,
// SDE particle chunks, sweep cells). Outer and inner workers draw
// from one shared budget, GOMAXPROCS, so the suite never oversubscribes
// the machine: grant = clamp(budget/outer, 1, Width).
//
// Parallelism is granted, never assumed. The engines and pools treat
// a zero worker bound as serial, so the grant is the only parallelism
// an experiment has, and it spends it in exactly one place: an
// experiment that runs its grid on sweep.Run gives the grant to the
// sweep cells and builds each cell's engine with Workers: 1, while a
// single-solver experiment gives it to the solver. Only this file, the
// suite runner and the top levels (CLIs, the fpcc facade) resolve
// GOMAXPROCS.
//
// Every engine is deterministic in its worker bound, so any (outer,
// inner) split renders byte-identical tables — the split moves
// wall-clock time only.

// Ctx is the per-experiment run context handed to every Experiment.Run:
// the experiment's recorder (nil when observability is off) and its
// negotiated inner-worker grant. A nil *Ctx is valid — the
// zero-overhead default for direct invocations — and means no recorder
// and a grant of GOMAXPROCS (a direct invocation is a top level).
type Ctx struct {
	rec   *Recorder
	inner int
}

// NewCtx builds a run context: rec may be nil (no observability);
// inner is the inner-worker grant (0 = serial).
func NewCtx(rec *Recorder, inner int) *Ctx { return &Ctx{rec: rec, inner: inner} }

// Rec returns the experiment's recorder; nil on a nil context (the
// recorder's methods are nil-safe no-ops).
func (c *Ctx) Rec() *Recorder {
	if c == nil {
		return nil
	}
	return c.rec
}

// Inner returns the experiment's inner-worker bound: the
// SetInnerWorkers override when set, else the context's negotiated
// grant, or GOMAXPROCS on a nil context (the direct-invocation
// default).
func (c *Ctx) Inner() int {
	if innerWorkersBound > 0 {
		return innerWorkersBound
	}
	if c == nil {
		return runtime.GOMAXPROCS(0)
	}
	return c.inner
}

// innerWorkersBound is the explicit global override of the negotiated
// per-experiment grants (benchreport -inner-workers, determinism
// tests).
var innerWorkersBound int

// SetInnerWorkers overrides the negotiated per-experiment inner-worker
// grants with a fixed bound (0 restores negotiation; this is the
// default). Call it before RunSuite or a direct experiment invocation;
// it must not be changed while a suite is running. Like every worker
// knob in this repository it affects wall-clock time only — the
// determinism tests pin the rendered tables byte-identical across
// worker counts and splits.
func SetInnerWorkers(n int) { innerWorkersBound = n }

// InnerWorkersOverride reports the current SetInnerWorkers override
// (0 = none); benchreport records it in the bench JSON.
func InnerWorkersOverride() int { return innerWorkersBound }

// negotiateInner computes the per-experiment inner grant for a suite
// run with the given outer worker count: the shared budget is
// GOMAXPROCS, each of the outer workers runs one experiment at a
// time, and an experiment never receives more inner workers than the
// parallel width it declares (Width 0 = the experiment has no inner
// parallelism; it gets the grant anyway, harmlessly).
func negotiateInner(outer int, width int) int {
	budget := runtime.GOMAXPROCS(0)
	if outer <= 0 {
		outer = budget
	}
	grant := budget / outer
	if grant < 1 {
		grant = 1
	}
	if width > 0 && grant > width {
		grant = width
	}
	return grant
}
