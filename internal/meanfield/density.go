package meanfield

import (
	"fmt"
	"math"

	"fpcc/internal/grid"
	"fpcc/internal/history"
	"fpcc/internal/obs"
	"fpcc/internal/parallel"
)

// Density is the kinetic backend: one RateDensity per class on a
// shared uniform λ-grid, coupled to the bottleneck queue ODE through
// the aggregate arrival rate. Stepping costs O(classes × bins)
// regardless of the population sizes N_k.
//
// Scheme, per step (operator splitting, mirroring the particle
// backend's update order so the two stay comparable):
//
//  1. the aggregate arrival rate Λ = Σ_k w_k N_k ⟨λ⟩_k is read from
//     the current densities;
//  2. each f_k is advected by its drift g_k(Q(t−τ_k), λ) —
//     conservative first-order upwind, or MUSCL/minmod when
//     Config.SecondOrder is set — with zero-flux ends, then diffused
//     by (σ_k²/2)·f_λλ with a Crank-Nicolson tridiagonal solve;
//  3. the queue advances by the explicit Euler update
//     Q ← max(Q + (Λ − μ)·Dt, 0).
//
// Tiny negative undershoots from the explicit sweeps are clipped and
// the clipped mass tracked (ClippedMass); means are normalized by the
// per-class mass so the audit quantity does not bias the coupling.
//
// The per-class transport/diffusion kernel lives in RateDensity; the
// networked engine (internal/netmf) couples the same kernel to a
// topology of link queues instead of this single bottleneck.
type Density struct {
	cfg   Config
	kerns []*ClassKernel
	t     float64
	q     float64

	hist     history.Series // the queue, interpolated at t − τ
	maxDelay float64
	step     int64 // completed steps, stamping probes and violations
}

// NewDensity builds the kinetic engine with every class initialized
// to its (grid-discretized, renormalized) Gaussian blob. Open classes
// (Class.Churn) get one phase kernel per lifetime phase, each
// starting with the phase's share of the blob.
func NewDensity(cfg Config) (*Density, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Density{
		cfg:      cfg,
		q:        cfg.Q0,
		maxDelay: cfg.maxDelay(),
	}
	for k, cl := range cfg.Classes {
		kern, err := NewClassKernel(cfg.LMax, cfg.Bins, cl.Lambda0, cl.InitStd, cfg.SecondOrder, cl.N, cl.Churn)
		if err != nil {
			return nil, fmt.Errorf("meanfield: class %d: %w", k, err)
		}
		d.kerns = append(d.kerns, kern)
	}
	d.hist = history.New(1)
	d.hist.Append(0, d.q)
	return d, nil
}

// Time returns the current simulation time.
func (d *Density) Time() float64 { return d.t }

// Queue returns the current queue length.
func (d *Density) Queue() float64 { return d.q }

// NumClasses returns the number of classes.
func (d *Density) NumClasses() int { return len(d.kerns) }

// ClippedMass returns the total probability mass ADDED by zeroing
// negative undershoots, summed over classes (so the exact budget is
// ∫f_k summed = classes + ClippedMass + born − died) — a
// discretization audit, not a physical gain.
func (d *Density) ClippedMass() float64 {
	var c float64
	for _, kern := range d.kerns {
		c += kern.ClippedMass()
	}
	return c
}

// Marginal returns a copy of class k's rate density (length Bins,
// cell-centered on [0, LMax]; phase kernels summed for open classes).
func (d *Density) Marginal(k int) []float64 { return d.kerns[k].Marginal() }

// RateGrid returns the λ-axis the densities live on.
func (d *Density) RateGrid() grid.Uniform1D { return d.kerns[0].Grid() }

// ClassMoments returns the mean and variance of class k's rate
// density, normalized by its current mass.
func (d *Density) ClassMoments(k int) (mean, variance float64) {
	return d.kerns[k].Moments()
}

// ClassMeanRate returns ⟨λ⟩_k, the mean per-source rate of class k.
// Unlike ClassMoments it makes a single pass (no variance), so the
// per-step coupling stays one O(bins) sweep per class.
func (d *Density) ClassMeanRate(k int) float64 { return d.kerns[k].MeanRate() }

// ClassPopulation returns class k's live population N_k·LiveMass_k —
// exactly N_k for closed classes, the birth–death ledger's value for
// open ones.
func (d *Density) ClassPopulation(k int) float64 {
	return float64(d.cfg.Classes[k].N) * d.kerns[k].LiveMass()
}

// AggregateRate returns the total arrival rate
// Λ = Σ_k w_k N_k ⟨λ⟩_k · live_k · env_k(t) currently offered to the
// bottleneck: the classic coupling scaled by each open class's live
// mass and each pulsed class's envelope factor (both factors exactly
// 1, and skipped, for classic classes).
func (d *Density) AggregateRate() float64 {
	var agg float64
	for k := range d.kerns {
		rate := d.cfg.weight(k) * float64(d.cfg.Classes[k].N) * d.ClassMeanRate(k)
		if d.cfg.Classes[k].Churn != nil {
			rate *= d.kerns[k].LiveMass()
		}
		if p := d.cfg.Classes[k].Pulse; p != nil {
			rate *= p.FactorAt(d.t)
		}
		agg += rate
	}
	return agg
}

// observedQueue returns the queue class k's controllers see at the
// current time: Q(t−τ_k) from the history, or the live queue at zero
// delay.
func (d *Density) observedQueue(k int) float64 {
	if tau := d.cfg.Classes[k].Delay; tau > 0 {
		return d.hist.Lerp(0, d.t-tau)
	}
	return d.q
}

// Step advances the system by one Dt. It returns an error if any
// class's drift violates the CFL bound max|g|·Dt/Δλ ≤ 1 (choose a
// smaller Dt or a coarser grid); the check runs before any state is
// mutated, so a failing Step leaves the solver exactly as it was.
func (d *Density) Step() error {
	agg := d.AggregateRate()
	dt := d.cfg.Dt
	for k, kern := range d.kerns {
		qObs := d.observedQueue(k)
		if err := kern.SetDrift(d.cfg.Classes[k].Law, qObs, dt); err != nil {
			return fmt.Errorf("meanfield: class %d %v", k, err)
		}
	}
	// Each class's transport/diffusion kernel (and its birth–death
	// ledger) touches only its own densities, so the sweeps shard
	// across the worker pool; the coupling (AggregateRate above)
	// already ran in class order.
	parallel.Each(len(d.kerns), d.cfg.Workers, func(k int) {
		kern := d.kerns[k]
		kern.Advect(dt)
		if sigma := d.cfg.Classes[k].SigmaL; sigma > 0 {
			kern.Diffuse(sigma, dt)
		}
		kern.ClampNegative()
		kern.StepChurn(dt)
	})
	d.q = math.Max(d.q+(agg-d.cfg.Mu)*dt, 0)
	d.t += dt
	d.hist.Append(d.t, d.q)
	d.hist.Prune(d.t - d.maxDelay - 1)
	d.step++
	if rec := d.cfg.Obs; rec.Enabled() {
		if err := d.observe(rec, agg); err != nil {
			return err
		}
	}
	return nil
}

// observe feeds the attached recorder after a completed step: probe
// samples when due (the per-class moment passes are O(bins), computed
// only then), invariant checks when enabled.
func (d *Density) observe(rec *obs.Recorder, agg float64) error {
	if rec.ProbeDue("mf.queue", d.t) {
		rec.Probe("mf.queue", d.t, d.q)
		rec.Probe("mf.lambda", d.t, agg)
		rec.Probe("mf.clipped", d.t, d.ClippedMass())
		for k, kern := range d.kerns {
			mean, variance := kern.Moments()
			name := "mf." + d.cfg.ClassName(k)
			rec.Probe(name+".mean", d.t, mean)
			rec.Probe(name+".var", d.t, variance)
			if kern.Open() {
				rec.Probe(name+".pop", d.t, d.ClassPopulation(k))
				rec.Probe(name+".born", d.t, float64(d.cfg.Classes[k].N)*kern.Born())
				rec.Probe(name+".died", d.t, float64(d.cfg.Classes[k].N)*kern.Died())
			}
		}
	}
	if !rec.Invariants() {
		return nil
	}
	for k, kern := range d.kerns {
		if err := kern.CheckInvariants(rec, d.step, d.t, "mf."+d.cfg.ClassName(k)); err != nil {
			return err
		}
	}
	if err := rec.CheckFinite(d.step, d.t, "mf.queue", d.q); err != nil {
		return err
	}
	return rec.CheckMonotoneTail(d.step, "mf.history", d.hist.TailTimes())
}

// Run advances until time tEnd (whole steps; the final partial step
// is skipped when shorter than Dt/2 to keep both backends on the same
// uniform time lattice).
func (d *Density) Run(tEnd float64) error {
	for d.t+d.cfg.Dt/2 <= tEnd {
		if err := d.Step(); err != nil {
			return err
		}
	}
	return nil
}
