package netmf

import (
	"fmt"
	"math"

	"fpcc/internal/grid"
	"fpcc/internal/history"
	"fpcc/internal/meanfield"
	"fpcc/internal/obs"
	"fpcc/internal/parallel"
)

// Engine is the networked kinetic solver: one meanfield.ClassKernel
// per class (a single RateDensity for closed classes, one per
// lifetime phase for open ones), one fluid queue (with an
// interpolated history for delayed observation) per node.
//
// Scheme, per step (operator splitting, the netmf generalization of
// meanfield.Density.Step — on a one-node topology the two produce
// bit-identical trajectories):
//
//  1. every class's offered rate Λ_k = w_k N_k ⟨λ⟩_k is read from the
//     current densities, and each node's arrival rate is accumulated
//     as A_j = Σ_{k : j ∈ route_k} Λ_k (class order, so sums are
//     deterministic);
//  2. each class observes its delayed path backlog
//     B_k = Σ_{j ∈ route_k} Q_j(t−τ_k) from the per-node histories
//     and caches (CFL-checks) its drift — no density is mutated until
//     every class has passed the check;
//  3. each f_k is advected (and diffused when σ_k > 0);
//  4. every queue advances by Q_j ← max(Q_j + (A_j − μ_j)·Dt, 0) and
//     records its history.
//
// Steps cost O(links + classes × bins + Σ_k |route_k|), independent
// of every population size N_k.
type Engine struct {
	cfg   Config
	kerns []*meanfield.ClassKernel
	q     []float64
	arr   []float64        // per-node arrival rate of the current step
	hist  []history.Series // per-node queue, interpolated at t − τ
	t     float64

	maxDelay float64
	step     int64 // completed steps, stamping probes and violations
}

// New builds the networked engine with every class initialized to its
// (grid-discretized, renormalized) Gaussian blob and every queue to
// its Q0 entry (0 without Q0).
func New(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:      cfg,
		q:        make([]float64, len(cfg.Topology.Nodes)),
		arr:      make([]float64, len(cfg.Topology.Nodes)),
		hist:     make([]history.Series, len(cfg.Topology.Nodes)),
		maxDelay: cfg.maxDelay(),
	}
	copy(e.q, cfg.Q0)
	for k, cl := range cfg.Classes {
		kern, err := meanfield.NewClassKernel(cfg.LMax, cfg.Bins, cl.Lambda0, cl.InitStd, cfg.SecondOrder, cl.N, cl.Churn)
		if err != nil {
			return nil, fmt.Errorf("netmf: class %d: %w", k, err)
		}
		e.kerns = append(e.kerns, kern)
	}
	for j := range e.hist {
		e.hist[j] = history.New(1)
		e.hist[j].Append(0, e.q[j])
	}
	return e, nil
}

// Time returns the current simulation time.
func (e *Engine) Time() float64 { return e.t }

// NumNodes returns the number of nodes in the topology.
func (e *Engine) NumNodes() int { return len(e.q) }

// Queue returns the current fluid queue length at node j.
func (e *Engine) Queue(j int) float64 { return e.q[j] }

// Queues returns a copy of every node's current queue length.
func (e *Engine) Queues() []float64 {
	return append([]float64(nil), e.q...)
}

// TotalQueue returns the summed queue length over all nodes.
func (e *Engine) TotalQueue() float64 {
	var s float64
	for _, q := range e.q {
		s += q
	}
	return s
}

// NumClasses returns the number of classes.
func (e *Engine) NumClasses() int { return len(e.kerns) }

// ClassMeanRate returns ⟨λ⟩_k, the mean per-source rate of class k.
func (e *Engine) ClassMeanRate(k int) float64 { return e.kerns[k].MeanRate() }

// ClassMoments returns the mean and variance of class k's rate
// density, normalized by its current mass.
func (e *Engine) ClassMoments(k int) (mean, variance float64) {
	return e.kerns[k].Moments()
}

// Marginal returns a copy of class k's rate density (length Bins,
// cell-centered on [0, LMax]; phase kernels summed for open classes).
func (e *Engine) Marginal(k int) []float64 { return e.kerns[k].Marginal() }

// RateGrid returns the λ-axis the densities live on.
func (e *Engine) RateGrid() grid.Uniform1D { return e.kerns[0].Grid() }

// ClippedMass returns the total probability mass added by zeroing
// negative transport undershoots, summed over classes — the same
// discretization audit as meanfield.Density.ClippedMass.
func (e *Engine) ClippedMass() float64 {
	var c float64
	for _, kern := range e.kerns {
		c += kern.ClippedMass()
	}
	return c
}

// ClassPopulation returns class k's live population N_k·LiveMass_k —
// exactly N_k for closed classes, the birth–death ledger's value for
// open ones.
func (e *Engine) ClassPopulation(k int) float64 {
	return float64(e.cfg.Classes[k].N) * e.kerns[k].LiveMass()
}

// ClassOfferedRate returns Λ_k = w_k N_k ⟨λ⟩_k · live_k · env_k(t),
// the rate class k currently offers to every hop of its route: the
// classic coupling scaled by an open class's live mass and a pulsed
// class's envelope factor (both factors exactly 1, and skipped, for
// classic classes).
func (e *Engine) ClassOfferedRate(k int) float64 {
	rate := e.cfg.weight(k) * float64(e.cfg.Classes[k].N) * e.kerns[k].MeanRate()
	if e.cfg.Classes[k].Churn != nil {
		rate *= e.kerns[k].LiveMass()
	}
	if p := e.cfg.Classes[k].Pulse; p != nil {
		rate *= p.FactorAt(e.t)
	}
	return rate
}

// NodeArrival returns node j's total arrival rate at the current
// densities, Σ over classes routing through j of Λ_k.
func (e *Engine) NodeArrival(j int) float64 {
	var a float64
	for k := range e.cfg.Classes {
		for _, h := range e.cfg.Classes[k].Route {
			if h == j {
				a += e.ClassOfferedRate(k)
			}
		}
	}
	return a
}

// PathBacklog returns B_k(t−τ_k): the delayed path backlog class k's
// controllers observe at the current time — per-link queue histories
// interpolated at t−τ_k and summed along the route (the live queues
// at zero delay).
func (e *Engine) PathBacklog(k int) float64 {
	cl := &e.cfg.Classes[k]
	var b float64
	if tau := cl.Delay; tau > 0 {
		obsT := e.t - tau
		for _, j := range cl.Route {
			b += e.hist[j].Lerp(0, obsT)
		}
	} else {
		for _, j := range cl.Route {
			b += e.q[j]
		}
	}
	return b
}

// Step advances the system by one Dt. It returns an error if any
// class's drift violates the CFL bound max|g|·Dt/Δλ ≤ 1 (choose a
// smaller Dt or a coarser grid); the check runs before any state is
// mutated, so a failing Step leaves the solver exactly as it was.
func (e *Engine) Step() error {
	dt := e.cfg.Dt
	// 1. Arrival rates from the current densities, accumulated in
	// class order.
	for j := range e.arr {
		e.arr[j] = 0
	}
	for k := range e.cfg.Classes {
		lam := e.ClassOfferedRate(k)
		for _, j := range e.cfg.Classes[k].Route {
			e.arr[j] += lam
		}
	}
	// 2. Delayed path backlogs and CFL-checked drifts, before any
	// mutation.
	for k, kern := range e.kerns {
		if err := kern.SetDrift(e.cfg.Classes[k].Law, e.PathBacklog(k), dt); err != nil {
			return fmt.Errorf("netmf: class %d %v", k, err)
		}
	}
	// 3. Transport and diffusion sweeps (and the birth–death ledgers)
	// — per-class kernels touch only their own densities, so they
	// shard across the worker pool.
	parallel.Each(len(e.kerns), e.cfg.Workers, func(k int) {
		kern := e.kerns[k]
		kern.Advect(dt)
		if sigma := e.cfg.Classes[k].SigmaL; sigma > 0 {
			kern.Diffuse(sigma, dt)
		}
		kern.ClampNegative()
		kern.StepChurn(dt)
	})
	// 4. Fluid queue ODEs and their histories.
	e.t += dt
	cut := e.t - e.maxDelay - 1
	for j := range e.q {
		e.q[j] = math.Max(e.q[j]+(e.arr[j]-e.cfg.Topology.Nodes[j].Mu)*dt, 0)
		e.hist[j].Append(e.t, e.q[j])
		e.hist[j].Prune(cut)
	}
	e.step++
	if rec := e.cfg.Obs; rec.Enabled() {
		if err := e.observe(rec); err != nil {
			return err
		}
	}
	return nil
}

// observe feeds the attached recorder after a completed step: probe
// samples when due (per-node queues and per-class rates), invariant
// checks when enabled.
func (e *Engine) observe(rec *obs.Recorder) error {
	if rec.ProbeDue("netmf.q", e.t) {
		// One shared rate-limit series ("netmf.q") gates the whole
		// snapshot, so every node and class samples at the same times.
		rec.Probe("netmf.q", e.t, e.TotalQueue())
		for j := range e.q {
			rec.Probe("netmf."+e.cfg.Topology.NodeName(j)+".q", e.t, e.q[j])
		}
		rec.Probe("netmf.clipped", e.t, e.ClippedMass())
		for k, kern := range e.kerns {
			name := "netmf." + e.cfg.ClassName(k)
			rec.Probe(name+".lambda", e.t, e.ClassOfferedRate(k))
			rec.Probe(name+".mean", e.t, kern.MeanRate())
			if kern.Open() {
				rec.Probe(name+".pop", e.t, e.ClassPopulation(k))
				rec.Probe(name+".born", e.t, float64(e.cfg.Classes[k].N)*kern.Born())
				rec.Probe(name+".died", e.t, float64(e.cfg.Classes[k].N)*kern.Died())
			}
		}
	}
	if !rec.Invariants() {
		return nil
	}
	for k, kern := range e.kerns {
		if err := kern.CheckInvariants(rec, e.step, e.t, "netmf."+e.cfg.ClassName(k)); err != nil {
			return err
		}
	}
	for j, q := range e.q {
		field := "netmf." + e.cfg.Topology.NodeName(j)
		if err := rec.CheckFinite(e.step, e.t, field+".q", q); err != nil {
			return err
		}
		if err := rec.CheckMonotoneTail(e.step, field+".history", e.hist[j].TailTimes()); err != nil {
			return err
		}
	}
	return nil
}

// Run advances until time tEnd (whole steps; the final partial step
// is skipped when shorter than Dt/2, the same uniform time lattice as
// meanfield.Density.Run).
func (e *Engine) Run(tEnd float64) error {
	for e.t+e.cfg.Dt/2 <= tEnd {
		if err := e.Step(); err != nil {
			return err
		}
	}
	return nil
}
