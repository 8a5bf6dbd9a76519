package main

import (
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"sort"

	"fpcc/internal/characteristics"
	"fpcc/internal/control"
	"fpcc/internal/dde"
	"fpcc/internal/des"
	"fpcc/internal/eventq"
	"fpcc/internal/fluid"
	"fpcc/internal/fokkerplanck"
	"fpcc/internal/linalg"
	"fpcc/internal/markov"
	"fpcc/internal/meanfield"
	"fpcc/internal/netmf"
	"fpcc/internal/netsim"
	"fpcc/internal/obs"
	"fpcc/internal/ode"
	"fpcc/internal/parallel"
	"fpcc/internal/rng"
	"fpcc/internal/sde"
	"fpcc/internal/stability"
	"fpcc/internal/sweep"
)

// The probes time calls into each engine package's public step or
// solve function on seeded inputs sized like the experiments that use
// the package. Each probe runs in its own span under the probes root.
// Loop counts are chosen for roughly 0.1-0.5 s per probe; quick mode
// (the self-tests) runs every loop once at its smallest size.

// probe is one engine layer's measurement.
type probe struct {
	metrics []string
	run     func(p *prober) error
}

var probes = []probe{
	{[]string{"fokkerplanck.step_ns", "fokkerplanck.step_allocs"}, func(p *prober) error {
		res, n, err := p.fpSteps("fokkerplanck.step", 120, 96, 1, 2000)
		p.set("fokkerplanck.step_ns", perOpNs(res, n))
		p.set("fokkerplanck.step_allocs", float64(res.Mallocs)/float64(n))
		return err
	}},
	{[]string{"fokkerplanck.step_ns_wmax"}, func(p *prober) error {
		res, n, err := p.fpSteps("fokkerplanck.step_wmax", 120, 96, runtime.NumCPU(), 2000)
		p.set("fokkerplanck.step_ns_wmax", perOpNs(res, n))
		return err
	}},
	{[]string{"fokkerplanck.step_ns_large"}, func(p *prober) error {
		res, n, err := p.fpSteps("fokkerplanck.step_large", 480, 384, 1, 100)
		p.set("fokkerplanck.step_ns_large", perOpNs(res, n))
		return err
	}},
	{[]string{"linalg.cn_step_ns"}, func(p *prober) error {
		const size = 150 // E9's q-axis
		var f linalg.CNFactor
		f.Ensure(0.2+0.1*p.rnd.Float64(), size)
		x, dp := make([]float64, size), make([]float64, size)
		for i := range x {
			x[i] = p.rnd.Float64()
		}
		n := p.n(100_000)
		res := p.span("linalg.cn_step", func() error {
			for range n {
				f.Step(x, dp)
			}
			return nil
		})
		p.set("linalg.cn_step_ns", perOpNs(res, n))
		return finite("linalg", x[size/2])
	}},
	{[]string{"sde.particle_step_ns"}, func(p *prober) error {
		const particles = 40_000 // E9's ensemble
		e, err := sde.New(sde.Config{
			Law: control.AIMD{C0: 2, C1: 0.8, QHat: 20}, Mu: 10, Sigma: 1.5,
			Particles: particles, Dt: 2e-3, Seed: p.seed,
			Q0: 10 + p.rnd.Float64(), Lambda0: 6, InitStdQ: 2, InitStdL: 1,
			Workers: 1,
		})
		if err != nil {
			return err
		}
		n := p.n(200)
		res := p.span("sde.ensemble_step", func() error {
			for range n {
				e.Step()
			}
			return nil
		})
		p.set("sde.particle_step_ns", perOpNs(res, n*particles))
		return nil
	}},
	{[]string{"markov.transient_s"}, func(p *prober) error {
		law, err := control.NewAIMD(2, 0.8, 8)
		if err != nil {
			return err
		}
		cq, err := markov.NewControlledQueue(law, 10, 40, 0, 20, 41) // E17's chain
		if err != nil {
			return err
		}
		p0, err := cq.InitialPoint(0, 3.5+p.rnd.Float64())
		if err != nil {
			return err
		}
		times := []float64{2, 5, 10, 20} // E17's checkpoints
		if p.quick {
			times = []float64{1}
		}
		n := p.n(5)
		res := p.span("markov.transient", func() error {
			for range n {
				if _, err := cq.Chain().TransientSeries(p0, times, 1e-9); err != nil {
					return err
				}
			}
			return nil
		})
		p.set("markov.transient_s", res.WallSeconds/float64(n))
		return nil
	}},
	{[]string{"rng.norm_ns", "rng.exp_ns"}, func(p *prober) error {
		r := rng.New(p.seed)
		n := p.n(5_000_000)
		var sum float64
		res := p.span("rng.norm", func() error {
			for range n {
				sum += r.Norm()
			}
			return nil
		})
		p.set("rng.norm_ns", perOpNs(res, n))
		res = p.span("rng.exp", func() error {
			for range n {
				sum += r.Exp(2)
			}
			return nil
		})
		p.set("rng.exp_ns", perOpNs(res, n))
		return finite("rng", sum)
	}},
	{[]string{"parallel.for_small_ns_w1", "parallel.for_small_ns_wmax", "parallel.for_small_allocs_wmax"}, func(p *prober) error {
		const items = 2 * 192 // a two-class mean-field step
		xs := make([]float64, items)
		for i := range xs {
			xs[i] = p.rnd.Float64()
		}
		n := p.n(50_000)
		loop := func(workers int) func() error {
			return func() error {
				for range n {
					parallel.For(items, workers, func(lo, hi int) {
						for i := lo; i < hi; i++ {
							xs[i] = xs[i]*0.5 + 0.25
						}
					})
				}
				return nil
			}
		}
		res := p.span("parallel.for_w1", loop(1))
		p.set("parallel.for_small_ns_w1", perOpNs(res, n))
		res = p.span("parallel.for_wmax", loop(runtime.NumCPU()))
		p.set("parallel.for_small_ns_wmax", perOpNs(res, n))
		p.set("parallel.for_small_allocs_wmax", float64(res.Mallocs)/float64(n))
		return finite("parallel", xs[0])
	}},
	{[]string{"sweep.map_cell_ns"}, func(p *prober) error {
		const cells = 64
		n := p.n(20_000)
		off := p.rnd.Float64()
		var sum float64
		res := p.span("sweep.map", func() error {
			for range n {
				out, err := sweep.Map(cells, runtime.NumCPU(), func(i int) (float64, error) { return float64(i) + off, nil })
				if err != nil {
					return err
				}
				sum += out[cells-1]
			}
			return nil
		})
		p.set("sweep.map_cell_ns", perOpNs(res, n*cells))
		return finite("sweep", sum)
	}},
	{[]string{"ode.rk4_step_ns"}, func(p *prober) error {
		s := ode.NewRK4(2)
		y := []float64{1 + p.rnd.Float64(), 0}
		osc := func(_ float64, y, dydt []float64) { dydt[0], dydt[1] = y[1], -y[0] }
		n := p.n(2_000_000)
		res := p.span("ode.rk4_step", func() error {
			for i := range n {
				s.Step(osc, float64(i)*1e-3, 1e-3, y)
			}
			return nil
		})
		p.set("ode.rk4_step_ns", perOpNs(res, n))
		return finite("ode", y[0])
	}},
	{[]string{"dde.solve_s", "dde.solve_mallocs", "dde.solve_mb"}, func(p *prober) error {
		// E24's shared-loop system with n = 4 delayed sources.
		const n, mu, tau = 4, 10.0, 0.35
		law, err := control.NewSmoothAIMD(2, 0.8, 20, 1.5)
		if err != nil {
			return err
		}
		sys := func(_ float64, y []float64, lag dde.Lagger, dydt []float64) {
			qDel := lag.Lag(0, tau)
			var sum float64
			for i := 1; i <= n; i++ {
				sum += y[i]
			}
			dydt[0] = sum - mu
			if y[0] <= 0 && sum < mu {
				dydt[0] = 0
			}
			for i := 1; i <= n; i++ {
				dydt[i] = law.Drift(qDel, y[i])
			}
		}
		q0 := 4 + 2*p.rnd.Float64()
		hist := func(float64) []float64 {
			y := []float64{q0, 0, 0, 0, 0}
			for i := 1; i <= n; i++ {
				y[i] = (mu / n) * (0.5 + float64(i)/n)
			}
			return y
		}
		horizon := 300.0
		if p.quick {
			horizon = 1
		}
		var out *dde.Result
		res := p.span("dde.solve", func() error {
			out, err = dde.Solve(sys, hist, []float64{tau}, 0, horizon, 0.001, dde.Options{Stride: 100})
			return err
		})
		p.set("dde.solve_s", res.WallSeconds)
		p.set("dde.solve_mallocs", float64(res.Mallocs))
		p.set("dde.solve_mb", float64(res.AllocBytes)/1e6)
		if err != nil {
			return err
		}
		_, y := out.At(out.Len() - 1)
		return finite("dde", y[0])
	}},
	{[]string{"fluid.solve_s", "fluid.solve_mallocs", "fluid.solve_mb"}, func(p *prober) error {
		l := control.AIMD{C0: 2, C1: 0.8, QHat: 20}
		m := fluid.Model{Mu: 10, Q0: 5 * p.rnd.Float64()}
		for i := range 4 {
			m.Sources = append(m.Sources, fluid.Source{Law: l, Delay: 1 + float64(i), Lambda0: 2})
		}
		horizon := 100.0
		if p.quick {
			horizon = 1
		}
		n := p.n(5)
		res := p.span("fluid.solve", func() error {
			for range n {
				if _, err := m.Solve(horizon, 5e-3, 100); err != nil {
					return err
				}
			}
			return nil
		})
		p.set("fluid.solve_s", res.WallSeconds/float64(n))
		p.set("fluid.solve_mallocs", float64(res.Mallocs)/float64(n))
		p.set("fluid.solve_mb", float64(res.AllocBytes)/1e6/float64(n))
		return nil
	}},
	{[]string{"characteristics.trace_exact_ns"}, func(p *prober) error {
		// E2's convergent spiral, traced segment by segment.
		l := control.AIMD{C0: 2, C1: 0.8, QHat: 20}
		start := characteristics.Point{Q: 0, Lambda: 1.5 + p.rnd.Float64()}
		horizon := 3000.0
		if p.quick {
			horizon = 50
		}
		n := p.n(3)
		res := p.span("characteristics.trace_exact", func() error {
			for range n {
				if _, err := characteristics.TraceExact(l, 10, start, horizon, 200_000); err != nil {
					return err
				}
			}
			return nil
		})
		p.set("characteristics.trace_exact_ns", perOpNs(res, n))
		return nil
	}},
	{[]string{"stability.dominant_root_ns"}, func(p *prober) error {
		tau := 0.25 + 0.1*p.rnd.Float64()
		n := p.n(2000)
		res := p.span("stability.dominant_root", func() error {
			for range n {
				if _, err := stability.DominantRoot(-1.067, -0.16, tau); err != nil {
					return err
				}
			}
			return nil
		})
		p.set("stability.dominant_root_ns", perOpNs(res, n))
		return nil
	}},
	{[]string{"des.packets_per_s", "des.run_mallocs", "des.tahoe_run_s"}, func(p *prober) error {
		// E3's one-node AIMD loop, several seeds.
		runs := p.n(40)
		var delivered int64
		res := p.span("des.run", func() error {
			for i := range runs {
				sim, err := des.New(des.Config{
					Mu: 50, Seed: p.seed + uint64(i),
					Sources: []des.SourceConfig{{Law: control.AIMD{C0: 20, C1: 2, QHat: 15}, Interval: 0.05, Lambda0: 5, MinRate: 1}},
				})
				if err != nil {
					return err
				}
				out, err := sim.Run(400, 50)
				if err != nil {
					return err
				}
				delivered += sum64(out.Delivered)
			}
			return nil
		})
		p.set("des.packets_per_s", float64(delivered)/res.WallSeconds)
		p.set("des.run_mallocs", float64(res.Mallocs)/float64(runs))
		// E21's two-flow Tahoe bottleneck at RTT ratio 2.
		horizon := 600.0
		if p.quick {
			horizon = 20
		}
		res = p.span("des.tahoe_run", func() error {
			sim, err := des.NewTahoe(des.TahoeConfig{
				Mu: 100, Buffer: 25, Seed: p.seed,
				Flows: []des.TahoeFlowConfig{{PropDelay: 0.025, RTO: 0.8}, {PropDelay: 0.05, RTO: 1.6}},
			})
			if err != nil {
				return err
			}
			_, err = sim.Run(horizon, horizon/6)
			return err
		})
		p.set("des.tahoe_run_s", res.WallSeconds)
		return nil
	}},
	{[]string{"netsim.packets_per_s", "netsim.run_mallocs"}, func(p *prober) error {
		law, err := control.NewAIMD(10, 2, 12)
		if err != nil {
			return err
		}
		// E26's three-hop parking lot.
		cfg, err := netsim.ParkingLot(netsim.ParkingLotConfig{Hops: 3, Mu: 40, Delay: 0.02, Law: law, Lambda0: 5, MinRate: 0.5, Seed: p.seed})
		if err != nil {
			return err
		}
		horizon := 3000.0
		if p.quick {
			horizon = 50
		}
		var delivered int64
		res := p.span("netsim.run", func() error {
			sim, err := netsim.New(cfg)
			if err != nil {
				return err
			}
			out, err := sim.Run(horizon, horizon/10)
			if err != nil {
				return err
			}
			delivered = sum64(out.Delivered)
			return nil
		})
		p.set("netsim.packets_per_s", float64(delivered)/res.WallSeconds)
		p.set("netsim.run_mallocs", float64(res.Mallocs))
		return nil
	}},
	{[]string{"eventq.push_pop_ns"}, func(p *prober) error {
		// Hold model: a steady population of pending events, each pop
		// followed by a push at a later exponential time.
		const pending = 1024
		var q eventq.Q[event]
		r := rng.New(p.seed)
		var seq uint64
		for range pending {
			seq++
			q.Push(event{r.Exp(1), seq})
		}
		n := p.n(500_000)
		res := p.span("eventq.push_pop", func() error {
			for range n {
				e := q.Pop()
				seq++
				q.Push(event{e.t + r.Exp(1), seq})
			}
			return nil
		})
		p.set("eventq.push_pop_ns", perOpNs(res, n))
		return nil
	}},
	{[]string{"meanfield.step_ns", "meanfield.step_mallocs", "meanfield.step_ns_w1", "meanfield.step_mallocs_w1"}, func(p *prober) error {
		for _, c := range workerCases {
			d, err := meanfield.NewDensity(p.rttMix(c.workers))
			if err != nil {
				return err
			}
			n := p.n(10_000)
			res := p.span("meanfield.step"+c.suffix, func() error {
				for range n {
					if err := d.Step(); err != nil {
						return err
					}
				}
				return nil
			})
			p.set("meanfield.step_ns"+c.suffix, perOpNs(res, n))
			p.set("meanfield.step_mallocs"+c.suffix, float64(res.Mallocs)/float64(n))
		}
		return nil
	}},
	{[]string{"netmf.step_ns", "netmf.step_mallocs", "netmf.step_ns_w1"}, func(p *prober) error {
		for _, c := range workerCases {
			// E30's three-hop parking lot at 10^6 sources per class.
			cfg, err := netmf.ParkingLot(netmf.ParkingLotConfig{Hops: 3, N: 1_000_000, Delay: 0.2, RTTStretch: 1 + 3*p.rnd.Float64()})
			if err != nil {
				return err
			}
			cfg.SecondOrder = true
			cfg.Workers = c.workers
			e, err := netmf.New(cfg)
			if err != nil {
				return err
			}
			n := p.n(5000)
			res := p.span("netmf.step"+c.suffix, func() error {
				for range n {
					if err := e.Step(); err != nil {
						return err
					}
				}
				return nil
			})
			p.set("netmf.step_ns"+c.suffix, perOpNs(res, n))
			if c.workers == 0 {
				p.set("netmf.step_mallocs", float64(res.Mallocs)/float64(n))
			}
		}
		return nil
	}},
	{[]string{"obs.disabled_probe_ns"}, func(p *prober) error {
		var r *obs.Recorder
		n := p.n(20_000_000)
		res := p.span("obs.disabled_probe", func() error {
			for i := range n {
				if r.Enabled() {
					r.Probe("q", float64(i), 1)
				}
			}
			return nil
		})
		p.set("obs.disabled_probe_ns", perOpNs(res, n))
		return nil
	}},
}

// workerCases are the mean-field probes' worker settings: Workers
// left unset, the way E28-E34 leave it, and Workers = 1.
var workerCases = []struct {
	workers int
	suffix  string
}{{0, ""}, {1, "_w1"}}

// event is the probe's eventq element.
type event struct {
	t   float64
	seq uint64
}

func (e event) Key() (float64, uint64) { return e.t, e.seq }

// prober carries one probe run's seed, tracer and results.
type prober struct {
	seed  uint64
	quick bool
	rnd   *rng.Source
	tr    *tracer
	root  int
	out   map[string]float64
	err   error // first error a span's function returned
}

// n returns a loop count: full, or 1 in quick mode.
func (p *prober) n(full int) int {
	if p.quick {
		return 1
	}
	return full
}

func (p *prober) set(name string, v float64) { p.out[name] = v }

// span runs fn in a span under the probes root and returns its
// resource delta. A probe that fails aborts the run, so its error is
// kept for the caller.
func (p *prober) span(name string, fn func() error) obs.Resources {
	id := p.tr.begin(name, p.root)
	err := fn()
	res := p.tr.end(id)
	if err != nil && p.err == nil {
		p.err = fmt.Errorf("%s: %w", name, err)
	}
	return res
}

// fpSteps times Solver.Step on an nq×nv grid of the paper's reference
// system (the fokkerplanck tests' base configuration).
func (p *prober) fpSteps(name string, nq, nv, workers, full int) (obs.Resources, int, error) {
	s, err := fokkerplanck.New(fokkerplanck.Config{
		Law: control.AIMD{C0: 2, C1: 0.8, QHat: 20}, Mu: 10, Sigma: 1,
		QMax: 60, NQ: nq, VMin: -12, VMax: 12, NV: nv,
		Workers: workers,
	})
	if err != nil {
		return obs.Resources{}, 1, err
	}
	if err := s.SetGaussian(8+4*p.rnd.Float64(), 0, 2, 1); err != nil {
		return obs.Resources{}, 1, err
	}
	dt := s.MaxStableDt()
	n := p.n(full)
	res := p.span(name, func() error {
		for range n {
			if err := s.Step(dt); err != nil {
				return err
			}
		}
		return nil
	})
	return res, n, nil
}

// rttMix is one cell of E29: two AIMD classes with a 4x RTT ratio
// sharing a bottleneck, 10^6 sources, 192 rate bins.
func (p *prober) rttMix(workers int) meanfield.Config {
	const total, qhat = 1_000_000, 2_000_000.0
	nSlow := 200_000 + p.rnd.Intn(600_000)
	return meanfield.Config{
		Classes: []meanfield.Class{
			{Name: "fast", Law: control.AIMD{C0: 0.5, C1: 0.5, QHat: qhat}, N: total - nSlow, Delay: 0.2, Lambda0: 1, InitStd: 0.3, SigmaL: 0.3},
			{Name: "slow", Law: control.AIMD{C0: 0.125, C1: 0.5, QHat: qhat}, N: nSlow, Delay: 0.8, Lambda0: 1, InitStd: 0.3, SigmaL: 0.3},
		},
		Mu: total, LMax: 6, Bins: 192, Dt: 0.005, Q0: qhat, SecondOrder: true,
		Workers: workers,
	}
}

// probeMetrics lists every probe metric name, sorted.
func probeMetrics() []string {
	var names []string
	for _, pr := range probes {
		names = append(names, pr.metrics...)
	}
	sort.Strings(names)
	return names
}

// runProbes runs every probe under one root span and checks that each
// set exactly the metrics it declares.
func runProbes(spec passSpec, quick bool) (passResult, error) {
	tr := newTracer(true)
	p := &prober{seed: spec.Seed, quick: quick, rnd: rng.New(spec.Seed), tr: tr}
	p.root = tr.begin("probes", -1)
	all := map[string]float64{}
	for _, pr := range probes {
		p.out = map[string]float64{}
		err := pr.run(p)
		if err == nil {
			err = p.err
		}
		if err != nil {
			return passResult{}, fmt.Errorf("probe %s: %w", pr.metrics[0], err)
		}
		got := slices.Sorted(maps.Keys(p.out))
		if !slices.Equal(got, slices.Sorted(slices.Values(pr.metrics))) {
			return passResult{}, fmt.Errorf("probe %s set %v, declares %v", pr.metrics[0], got, pr.metrics)
		}
		maps.Copy(all, p.out)
	}
	res := tr.end(p.root)
	return passResult{Spec: spec, Res: res, Metrics: all, Spans: tr.spans()}, nil
}

func perOpNs(res obs.Resources, n int) float64 { return res.WallSeconds * 1e9 / float64(n) }

func sum64(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

// finite guards against a probe whose result the compiler could treat
// as dead, and against a poisoned run.
func finite(layer string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("%s: non-finite result %v", layer, v)
	}
	return nil
}
