// Package netmf is the networked mean-field engine: the large-N
// kinetic limit of internal/meanfield generalized from one shared
// bottleneck to an arbitrary topology of fluid link queues — the join
// of the repository's two scaling axes (millions of sources, and
// multi-bottleneck scenarios).
//
// The finite-N system is the one internal/netsim simulates packet by
// packet: N_k sources of class k follow a fixed multi-hop route
// through a graph of queues, adjusting their rates from the summed,
// delayed congestion of the route. As N_k → ∞ with per-node capacity
// scaled along, the per-class rate densities f_k(λ, t) close exactly
// (every source of a class sees the same delayed path backlog):
//
//	∂f_k/∂t + ∂(g_k(B_k(t−τ_k), λ) f_k)/∂λ = (σ_k²/2) ∂²f_k/∂λ²
//
// where B_k(t) = Σ_{j ∈ route_k} Q_j(t) is the path backlog, coupled
// to one fluid queue ODE per node:
//
//	dQ_j/dt = Σ_{k : j ∈ route_k} w_k N_k ⟨λ⟩_k − μ_j     (Q_j ≥ 0).
//
// Sources are rate-limited (a class offers its source rate to every
// hop of its route; queues grow wherever capacity falls short), the
// standard kinetic-limit closure for feedback-controlled flows — the
// netsim cross-check test quantifies how close the packet system runs
// to it at small N.
//
// Each class's delayed congestion signal is accumulated along its
// route from the interpolated per-link queue histories at t−τ_k, with
// per-class RTTs τ_k — the density analogue of netsim's observePath.
// Stepping costs O(links + classes × bins) independent of every N_k,
// so parking-lot fairness and bottleneck-migration studies run at
// N = 10⁶ per class in the time netsim spends on tens of flows
// (experiments E30, E31).
//
// The per-class transport/diffusion kernel (meanfield.RateDensity)
// is shared with the single-bottleneck engine, and every link's queue
// history is the same history.Series it reads at t − τ; the topology vocabulary
// (netsim.Topology) is shared with the packet simulator, so a
// one-node netmf scenario reduces bit-for-bit to meanfield.Density
// and the same graph can be handed to either engine.
package netmf

import (
	"fmt"
	"math"

	"fpcc/internal/churn"
	"fpcc/internal/control"
	"fpcc/internal/netsim"
	"fpcc/internal/obs"
)

// Class describes one homogeneous sub-population of sources following
// a common route.
type Class struct {
	// Name labels the class in reports (defaults to "class<k>").
	Name string
	// Law is the class's rate-control law g(B, λ), driven by the
	// delayed path backlog B (the sum of the route's queue lengths),
	// so its threshold q̂ is a total-path-queue target — exactly the
	// feedback a netsim flow's controller sees.
	Law control.Law
	// N is the population size. The engine's per-step cost is
	// independent of N.
	N int
	// Weight scales this class's per-source contribution to every
	// arrival rate on its route (0 means 1).
	Weight float64
	// Delay is the class's feedback delay τ (its RTT): controllers
	// observe the path backlog as it stood at t−τ.
	Delay float64
	// Route is the ordered list of node indices the class's sources
	// traverse. Every consecutive pair must be connected by a link of
	// the topology.
	Route []int
	// Lambda0 and InitStd define the initial rate distribution: a
	// Gaussian blob clipped to [0, LMax] (InitStd = 0 is a point
	// mass).
	Lambda0 float64
	InitStd float64
	// SigmaL is the intrinsic rate variability σ_k, entering as the
	// (σ_k²/2)·f_λλ diffusion.
	SigmaL float64
	// Churn, when non-nil, opens the class: sessions are born at
	// Churn.Arrival flows/s and die after Churn.Lifetime, evolved as
	// birth–death source terms on the class's phase kernels (see
	// meanfield.ClassKernel). N is then the population at t = 0 and
	// the live population is N·(1 + born − died).
	Churn *churn.Flow
	// Pulse, when non-nil, scales the class's offered rate on every
	// hop by the deterministic duty-cycle envelope — the synchronized
	// on/off blaster of the adversarial experiments.
	Pulse *churn.Pulse
}

// Config describes a networked mean-field problem: the node/link
// graph, the class mix routed over it, the rate domain, and the time
// step.
//
// Only Node.Mu is meaningful to the fluid engine: queues are
// unbounded (Node.Buffer is ignored) and feedback is transparent
// (Node.Gateway is ignored) — the kinetic limit of drop-tail losses
// and gateway marking is future work. This keeps the graph type
// shared with netsim, so canned topologies can be handed to either
// engine.
type Config struct {
	Topology netsim.Topology
	Classes  []Class
	// LMax bounds the per-source rate domain λ ∈ [0, LMax].
	LMax float64
	// Bins is the rate-grid resolution per class.
	Bins int
	// Dt is the explicit Euler step; the transport sweeps additionally
	// enforce the CFL bound max|g|·Dt/Δλ ≤ 1 at every step.
	Dt float64
	// Q0, when non-nil, holds one initial queue length per node (nil
	// means every queue starts empty).
	Q0 []float64
	// SecondOrder selects MUSCL/minmod (TVD) transport sweeps instead
	// of first-order upwind (same trade as meanfield.Config).
	SecondOrder bool

	// Workers bounds the per-step parallelism over classes
	// (0 = serial; negative is rejected). It affects wall-clock time
	// only, never results: each class's kernel is independent within
	// a step and the arrival-rate coupling stays in class order.
	Workers int

	// Obs, when non-nil, receives per-step probes (per-node queues,
	// per-class offered rates and means) and, when it enables
	// invariants, runs the per-step checks: per-class mass budget
	// ∫f_k = 1 + clipped_k, density non-negativity, CFL margin,
	// per-node queue non-negativity, and queue-history monotonicity.
	// A failing check aborts Step with a step-stamped error. The nil
	// default costs one branch per step and never changes any
	// observable.
	Obs *obs.Recorder
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if err := c.Topology.Validate(); err != nil {
		return fmt.Errorf("netmf: topology: %w", err)
	}
	switch {
	case len(c.Classes) == 0:
		return fmt.Errorf("netmf: no classes")
	case !(c.LMax > 0) || math.IsInf(c.LMax, 1):
		return fmt.Errorf("netmf: LMax must be positive, got %v", c.LMax)
	case c.Bins < 8:
		return fmt.Errorf("netmf: need at least 8 rate bins, got %d", c.Bins)
	case !(c.Dt > 0):
		return fmt.Errorf("netmf: non-positive step %v", c.Dt)
	case c.Workers < 0:
		return fmt.Errorf("netmf: negative worker bound %d", c.Workers)
	}
	if c.Q0 != nil && len(c.Q0) != len(c.Topology.Nodes) {
		return fmt.Errorf("netmf: Q0 has %d entries for %d nodes", len(c.Q0), len(c.Topology.Nodes))
	}
	for j, q := range c.Q0 {
		if !(q >= 0) {
			return fmt.Errorf("netmf: node %d has invalid initial queue %v", j, q)
		}
	}
	// The !(x >= 0) forms reject NaN along with negatives, keeping a
	// NaN parameter from silently poisoning the queue ODEs.
	for k, cl := range c.Classes {
		switch {
		case cl.Law == nil:
			return fmt.Errorf("netmf: class %d has nil law", k)
		case cl.N < 1:
			return fmt.Errorf("netmf: class %d has population %d, want >= 1", k, cl.N)
		case !(cl.Weight >= 0):
			return fmt.Errorf("netmf: class %d has invalid weight %v", k, cl.Weight)
		case !(cl.Delay >= 0):
			return fmt.Errorf("netmf: class %d has invalid delay %v", k, cl.Delay)
		case !(cl.Lambda0 >= 0) || cl.Lambda0 > c.LMax:
			return fmt.Errorf("netmf: class %d initial rate %v outside [0, %v]", k, cl.Lambda0, c.LMax)
		case !(cl.InitStd >= 0):
			return fmt.Errorf("netmf: class %d has invalid initial spread %v", k, cl.InitStd)
		case !(cl.SigmaL >= 0):
			return fmt.Errorf("netmf: class %d has invalid sigma %v", k, cl.SigmaL)
		}
		if err := c.Topology.ValidateRoute(cl.Route); err != nil {
			return fmt.Errorf("netmf: class %d: %w", k, err)
		}
		if cl.Churn != nil {
			if err := cl.Churn.Validate(c.LMax); err != nil {
				return fmt.Errorf("netmf: class %d: %w", k, err)
			}
		}
	}
	return nil
}

// TotalSources returns Σ_k N_k.
func (c *Config) TotalSources() int {
	n := 0
	for _, cl := range c.Classes {
		n += cl.N
	}
	return n
}

// ClassName returns the display name of class k.
func (c *Config) ClassName(k int) string {
	if c.Classes[k].Name != "" {
		return c.Classes[k].Name
	}
	return fmt.Sprintf("class%d", k)
}

// weight resolves the per-source weight of class k (0 means 1).
func (c *Config) weight(k int) float64 {
	if w := c.Classes[k].Weight; w > 0 {
		return w
	}
	return 1
}

// maxDelay returns the longest class feedback delay.
func (c *Config) maxDelay() float64 {
	var d float64
	for _, cl := range c.Classes {
		if cl.Delay > d {
			d = cl.Delay
		}
	}
	return d
}
