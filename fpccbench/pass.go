package main

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"

	"fpcc/internal/experiments"
	"fpcc/internal/obs"
	"fpcc/internal/rng"
)

// passSpec is the job of one child process. Kind "pass" runs a
// workload's experiments in a seeded order at one outer/inner shape;
// "setup" stops right before the first Run; "probes" runs the engine
// probes.
type passSpec struct {
	Kind     string `json:"kind"`
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Index    int    `json:"index"`
	Outer    int    `json:"outer"`
	Inner    int    `json:"inner"` // 0 = negotiated per experiment
	Traced   bool   `json:"traced"`
}

// call is the outcome of one Experiment.Run.
type call struct {
	ID     string `json:"id"`
	Digest string `json:"digest,omitempty"` // sha256 of Table.MarshalJSON
	Err    string `json:"err,omitempty"`
	Alarm  string `json:"alarm,omitempty"`
}

// passResult is what a pass process reports to the orchestrator.
type passResult struct {
	Spec passSpec `json:"spec"`
	// FirstRunUnixNano is the wall clock just before the first timed
	// Experiment.Run; the orchestrator subtracts its spawn time to get
	// set-up time.
	FirstRunUnixNano int64         `json:"first_run_unix_nano"`
	Res              obs.Resources `json:"res"`
	Calls            []call        `json:"calls,omitempty"`
	Spans            []span        `json:"spans,omitempty"`
	// Metrics are the probe results (Kind "probes").
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// SetupSeconds and PeakRSSMB are filled in by the orchestrator:
	// spawn to first Run, and the process's peak resident set.
	SetupSeconds float64 `json:"setup_s"`
	PeakRSSMB    float64 `json:"peak_rss_mb"`
}

// order returns the pass's experiment order: the workload's slice
// shuffled by (seed, pass index).
func order(ids []string, seed uint64, index int) []string {
	out := append([]string(nil), ids...)
	r := rng.New(rng.Mix(seed) ^ uint64(index))
	for i := len(out) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// runPass executes one pass with spec.Outer closed-loop callers, each
// starting its next experiment only when the previous one returned.
// after, when non-nil, sees each table after Run and before it is
// digested (fault injection in tests).
func runPass(spec passSpec, ids []string, after func(*experiments.Table)) (passResult, error) {
	exps, err := experimentsOf(order(ids, spec.Seed, spec.Index))
	if err != nil {
		return passResult{}, err
	}
	tr := newTracer(spec.Traced)
	calls := make([]call, len(exps))
	var next atomic.Int64
	var wg sync.WaitGroup
	out := passResult{Spec: spec, FirstRunUnixNano: time.Now().UnixNano()}
	if spec.Kind == "setup" {
		return out, nil
	}
	root := tr.begin("pass."+spec.Workload, -1)
	start := obs.ReadResources()
	for range min(spec.Outer, len(exps)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(exps) {
					return
				}
				calls[i] = runOne(exps[i], grant(spec.Outer, spec.Inner, exps[i]), tr, root, after)
			}
		}()
	}
	wg.Wait()
	out.Res = obs.ReadResources().Sub(start)
	tr.end(root)
	out.Calls = calls
	out.Spans = tr.spans()
	return out, nil
}

// runOne runs one experiment and digests its table.
func runOne(e experiments.Experiment, inner int, tr *tracer, parent int, after func(*experiments.Table)) call {
	c := call{ID: e.ID}
	sp := tr.begin("experiments."+e.ID, parent)
	tb, err := e.Run(experiments.NewCtx(nil, inner))
	tr.end(sp)
	if err != nil {
		c.Err = err.Error()
		return c
	}
	if after != nil {
		after(tb)
	}
	c.Alarm = tb.Alarm()
	js, err := tb.MarshalJSON()
	if err != nil {
		c.Err = "rendering table: " + err.Error()
		return c
	}
	sum := sha256.Sum256(js)
	c.Digest = hex.EncodeToString(sum[:])
	return c
}
