package main

import (
	"fmt"
	"io"
	"maps"
	"strings"
	"sync"
	"time"

	"fpcc/internal/obs"
)

// span is one traced interval: a pass, an Experiment.Run call or a
// probe. Res is the process resource delta over the interval, which
// attributes exactly only while nothing else runs in the process.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for a root span
	Name   string        `json:"name"`
	Start  int64         `json:"start_unix_nano"`
	End    int64         `json:"end_unix_nano"`
	Res    obs.Resources `json:"res"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing and costs one branch per call.
type tracer struct {
	mu    sync.Mutex
	list  []span
	start []obs.Resources
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{}
}

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.list)
	t.list = append(t.list, span{ID: id, Parent: parent, Name: name, Start: time.Now().UnixNano()})
	t.start = append(t.start, obs.ReadResources())
	return id
}

// end closes span id and returns its resource delta.
func (t *tracer) end(id int) obs.Resources {
	if t == nil {
		return obs.Resources{}
	}
	res := obs.ReadResources()
	now := time.Now().UnixNano()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.list[id].End = now
	t.list[id].Res = res.Sub(t.start[id])
	return t.list[id].Res
}

// spans returns the recorded spans in begin order.
func (t *tracer) spans() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.list...)
}

// traced is the per-layer run for workload w: one untraced and one
// traced pass of w at its shape (their wall difference is the tracing
// overhead), a traced serial pass of every workload (each experiment
// alone in the process, so its span's resource delta is exact; for w
// it is also the outer 1 / inner 1 cross-check of the tables), and
// the engine probes.
func traced(w workload, seed uint64, stdout io.Writer) (resultSet, error) {
	var set resultSet
	add := func(spec passSpec) (passResult, error) {
		p, err := spawn(spec)
		if err == nil {
			set.Passes = append(set.Passes, p)
		}
		return p, err
	}
	shape := passSpec{Kind: "pass", Workload: w.Name, Seed: seed, Outer: w.outer(), Inner: w.Inner}
	base, err := add(shape)
	if err != nil {
		return set, err
	}
	var tracedShape passResult
	if !w.serial() {
		shape.Traced = true
		if tracedShape, err = add(shape); err != nil {
			return set, err
		}
	}
	metrics := map[string]float64{}
	for _, v := range workloads {
		p, err := add(passSpec{Kind: "pass", Workload: v.Name, Seed: seed, Outer: 1, Inner: 1, Traced: true})
		if err != nil {
			return set, err
		}
		if v.Name == w.Name && w.serial() {
			tracedShape = p
		}
		root := p.Spans[0]
		var sum float64
		fmt.Fprintf(stdout, "serial pass of %s: %.4g s; share of the pass per experiment:\n", v.Name, root.Res.WallSeconds)
		for _, sp := range p.Spans[1:] {
			id := strings.TrimPrefix(sp.Name, "experiments.")
			metrics["experiments."+id+".wall_s"] = sp.Res.WallSeconds
			metrics["experiments."+id+".mallocs"] = float64(sp.Res.Mallocs)
			sum += sp.Res.WallSeconds
			fmt.Fprintf(stdout, "  %-4s %9.4g s  %5.1f%%  %10d mallocs\n", id, sp.Res.WallSeconds, 100*sp.Res.WallSeconds/root.Res.WallSeconds, sp.Res.Mallocs)
		}
		fmt.Fprintf(stdout, "  runner overhead (pass minus experiment spans): %.4g s\n", root.Res.WallSeconds-sum)
	}
	metrics["trace.overhead_s"] = tracedShape.Res.WallSeconds - base.Res.WallSeconds
	fmt.Fprintf(stdout, "tracing overhead on %s: traced pass %.4g s - untraced pass %.4g s = %.4g s\n", w.Name, tracedShape.Res.WallSeconds, base.Res.WallSeconds, metrics["trace.overhead_s"])
	probes, err := add(passSpec{Kind: "probes", Seed: seed, Traced: true})
	if err != nil {
		return set, err
	}
	maps.Copy(metrics, probes.Metrics)

	attempted, failed, why := tally(set.Passes, map[string]string{})
	set.Failures = why
	set.Result = result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, name := range perLayerMetrics() {
		v, ok := metrics[name]
		if !ok {
			return set, fmt.Errorf("traced run produced no %s", name)
		}
		set.Result.Metrics[name] = metric{v, unitOf(name)}
		fmt.Fprintf(stdout, "%-40s %14.6g %s\n", name, v, unitOf(name))
	}
	if len(metrics) != len(set.Result.Metrics) {
		return set, fmt.Errorf("traced run produced %d metrics, %d declared", len(metrics), len(set.Result.Metrics))
	}
	fmt.Fprintf(stdout, "failed_frac %.6g (%d of %d calls)\n", float64(failed)/float64(attempted), failed, attempted)
	return set, nil
}

// perLayerMetrics lists every metric of a traced run: per experiment,
// per probe, and the tracing overhead.
func perLayerMetrics() []string {
	var names []string
	for _, id := range assignedIDs() {
		names = append(names, "experiments."+id+".wall_s", "experiments."+id+".mallocs")
	}
	names = append(names, probeMetrics()...)
	return append(names, "trace.overhead_s")
}

// endToEndMetrics lists every metric of an untraced run.
var endToEndMetrics = []string{"wall_s", "cpu_s", "mallocs", "alloc_mb", "peak_rss_mb", "setup_s"}
