package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"fpcc/internal/experiments"
)

// shortest is each workload's quickest experiment on the reference
// host (README.md), the minimal run's slice.
var shortest = map[string]string{
	"fluid-dde":       "E1",
	"fp-density":      "E17",
	"packet":          "E3",
	"meanfield-sweep": "E32",
}

func TestRegistryCoverage(t *testing.T) {
	reg := experiments.All()
	if err := checkCoverage(workloads, excluded, reg); err != nil {
		t.Fatal(err)
	}
	extra := append(slices.Clone(reg), experiments.Experiment{ID: "E999", Title: "unassigned"})
	if err := checkCoverage(workloads, excluded, extra); err == nil || !strings.Contains(err.Error(), "E999") {
		t.Fatalf("an unassigned registry entry passed: %v", err)
	}
	dup := append(slices.Clone(workloads), workload{Name: "again", IDs: []string{"E1"}})
	if err := checkCoverage(dup, excluded, reg); err == nil {
		t.Fatal("an experiment in two workloads passed")
	}
	if err := checkCoverage(workloads, map[string]string{"E10": ""}, reg); err == nil {
		t.Fatal("an exclusion without a reason passed")
	}
}

// TestBenchmarkJSON checks that the workloads and the metric names and
// units a run emits are the ones BENCHMARK.json declares.
func TestBenchmarkJSON(t *testing.T) {
	js, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name, Unit, Better string
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(js, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.Name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, code has %v", names, want)
	}
	check := func(kind string, got []decl, want []string) {
		t.Helper()
		var gotNames []string
		for _, d := range got {
			gotNames = append(gotNames, d.Name)
			if d.Unit != unitOf(d.Name) {
				t.Errorf("%s %s: unit %q, the run emits %q", kind, d.Name, d.Unit, unitOf(d.Name))
			}
		}
		if !slices.Equal(gotNames, want) {
			t.Errorf("BENCHMARK.json %s metrics\n%v\nthe run emits\n%v", kind, gotNames, want)
		}
	}
	check("end_to_end", b.EndToEnd, endToEndMetrics)
	check("per_layer", b.PerLayer, perLayerMetrics())
}

// TestMinimalRun runs each workload's shortest experiment at the
// workload's shape, traced and untraced, and every probe at its
// smallest size.
func TestMinimalRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs experiments")
	}
	for _, w := range workloads {
		id := shortest[w.Name]
		if !slices.Contains(w.IDs, id) {
			t.Fatalf("%s: shortest experiment %s is not in the workload", w.Name, id)
		}
		var passes []passResult
		for i, traced := range []bool{false, true} {
			spec := passSpec{Kind: "pass", Workload: w.Name, Seed: 1, Index: i, Outer: w.outer(), Inner: w.Inner, Traced: traced}
			p, err := runPass(spec, []string{id}, nil)
			if err != nil {
				t.Fatal(err)
			}
			passes = append(passes, p)
		}
		if attempted, failed, why := tally(passes, map[string]string{}); attempted != 2 || failed != 0 {
			t.Errorf("%s: %d of %d calls failed: %v", w.Name, failed, attempted, why)
		}
		if got := len(passes[0].Spans); got != 0 {
			t.Errorf("%s: untraced pass recorded %d spans", w.Name, got)
		}
		sp := passes[1].Spans
		if len(sp) != 2 || sp[0].Parent != -1 || sp[1].Parent != sp[0].ID || sp[1].Name != "experiments."+id || sp[1].End < sp[1].Start {
			t.Errorf("%s: traced pass spans %+v, want a pass root and one experiment child", w.Name, sp)
		}
	}
	p, err := runProbes(passSpec{Kind: "probes", Seed: 1, Traced: true}, true)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for name := range p.Metrics {
		got = append(got, name)
	}
	slices.Sort(got)
	if want := probeMetrics(); !slices.Equal(got, want) {
		t.Errorf("probes emitted\n%v\nwant\n%v", got, want)
	}
	for i, sp := range p.Spans {
		if parent := min(i-1, 0); sp.Parent != parent {
			t.Errorf("probe span %d (%s) has parent %d, want %d", i, sp.Name, sp.Parent, parent)
		}
	}
}

// TestFaultInjection checks that a table changed after Run, or a run
// that raises an alarm, is counted as a failed call.
func TestFaultInjection(t *testing.T) {
	if testing.Short() {
		t.Skip("runs experiments")
	}
	ids := []string{"E3", "E13"}
	spec := passSpec{Kind: "pass", Workload: "packet", Seed: 1, Outer: 1, Inner: 1}
	ref, err := runPass(spec, ids, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*experiments.Table)
	}{
		{"mutated", func(tb *experiments.Table) {
			if tb.ID == "E3" {
				tb.Caption += " (mutated)"
			}
		}},
		{"alarm", func(tb *experiments.Table) {
			if tb.ID == "E13" {
				tb.AddFinding("MISMATCH injected by the test")
			}
		}},
	} {
		spec.Index = 1
		bad, err := runPass(spec, ids, tc.mutate)
		if err != nil {
			t.Fatal(err)
		}
		attempted, failed, why := tally([]passResult{ref, bad}, map[string]string{})
		if attempted != 4 || failed != 1 {
			t.Errorf("%s: %d of %d calls failed (%v), want 1 of 4", tc.name, failed, attempted, why)
		}
	}
}

func TestCompareRefusesOtherHost(t *testing.T) {
	dir := t.TempDir()
	h := fingerprint()
	a := resultSet{Host: h, Workload: "packet", Result: result{Metrics: map[string]metric{"wall_s": {2, "s"}}}}
	b := a
	b.Host.NumCPU++
	paths := [2]string{filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")}
	for i, set := range []resultSet{a, b} {
		js, err := json.Marshal(set)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(paths[i], js, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out strings.Builder
	if err := compare([]string{paths[0], paths[1]}, &out); err == nil || !strings.Contains(err.Error(), "fingerprints differ") {
		t.Fatalf("compared result sets of two hosts: %v", err)
	}
	if err := compare([]string{paths[0], paths[0]}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "wall_s") {
		t.Errorf("compare printed %q", out.String())
	}
}
