package main

import (
	"fmt"
	"runtime"
	"sort"

	"fpcc/internal/experiments"
)

// A workload is a fixed slice of the experiment registry run at one
// outer/inner worker shape. Outer is the number of concurrent callers
// (0 = NumCPU); Inner is each experiment's inner-worker grant (0 =
// negotiated the way the suite runner does: NumCPU/outer, capped by
// the experiment's Width). The slices partition the registry by the
// engine layers they exercise, so an optimisation of one layer has a
// workload that runs it and workloads that bypass it (README.md).
type workload struct {
	Name  string
	IDs   []string
	Outer int
	Inner int
}

var workloads = []workload{
	{
		Name:  "fluid-dde",
		IDs:   []string{"E1", "E2", "E4", "E5", "E6", "E7", "E8", "E11", "E15", "E19", "E22", "E23", "E24"},
		Outer: 1, Inner: 1,
	},
	{
		Name:  "fp-density",
		IDs:   []string{"E9", "E12", "E14", "E17"},
		Outer: 1, Inner: 0,
	},
	{
		Name:  "packet",
		IDs:   []string{"E3", "E13", "E16", "E18", "E20", "E21", "E25", "E26", "E27", "E33"},
		Outer: 1, Inner: 1,
	},
	{
		Name:  "meanfield-sweep",
		IDs:   []string{"E28", "E29", "E30", "E31", "E32", "E34"},
		Outer: 0, Inner: 0,
	},
}

// excluded lists registry IDs deliberately outside every workload.
var excluded = map[string]string{
	"E10": "repeats the Solver.Step loop of E12/E14 at ~9 s a pass and exercises no layer they do not",
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// outer resolves the workload's caller count.
func (w workload) outer() int {
	if w.Outer <= 0 {
		return runtime.NumCPU()
	}
	return w.Outer
}

// serial reports whether w runs one experiment at a time with one
// inner worker.
func (w workload) serial() bool { return w.outer() == 1 && w.Inner == 1 }

// grant is the inner-worker grant one experiment receives at the
// given outer count: the suite runner's negotiation rule unless the
// workload pins Inner.
func grant(outer, inner int, e experiments.Experiment) int {
	if inner > 0 {
		return inner
	}
	g := max(runtime.NumCPU()/outer, 1)
	if e.Width > 0 && g > e.Width {
		g = e.Width
	}
	return g
}

// experimentsOf returns the registry entries of ids, in ids order.
func experimentsOf(ids []string) ([]experiments.Experiment, error) {
	byID := make(map[string]experiments.Experiment)
	for _, e := range experiments.All() {
		byID[e.ID] = e
	}
	out := make([]experiments.Experiment, len(ids))
	for i, id := range ids {
		e, ok := byID[id]
		if !ok {
			return nil, fmt.Errorf("experiment %s is not in the registry", id)
		}
		out[i] = e
	}
	return out, nil
}

// assignedIDs returns every ID some workload runs, in registry order.
func assignedIDs() []string {
	rank := make(map[string]int)
	for i, e := range experiments.All() {
		rank[e.ID] = i
	}
	var ids []string
	for _, w := range workloads {
		ids = append(ids, w.IDs...)
	}
	sort.Slice(ids, func(i, j int) bool { return rank[ids[i]] < rank[ids[j]] })
	return ids
}

// checkCoverage verifies that every registry entry is assigned to
// exactly one workload or excluded with a reason, and that nothing
// else is.
func checkCoverage(ws []workload, excl map[string]string, reg []experiments.Experiment) error {
	owner := make(map[string]string)
	for _, w := range ws {
		for _, id := range w.IDs {
			if prev, dup := owner[id]; dup {
				return fmt.Errorf("%s is assigned to both %s and %s", id, prev, w.Name)
			}
			owner[id] = w.Name
		}
	}
	for id, reason := range excl {
		if w, dup := owner[id]; dup {
			return fmt.Errorf("%s is both excluded and assigned to %s", id, w)
		}
		if reason == "" {
			return fmt.Errorf("%s is excluded without a reason", id)
		}
		owner[id] = "excluded"
	}
	for _, e := range reg {
		if _, ok := owner[e.ID]; !ok {
			return fmt.Errorf("%s (%s) is in no workload and not excluded", e.ID, e.Title)
		}
		delete(owner, e.ID)
	}
	for id := range owner {
		return fmt.Errorf("%s is assigned but not in the registry", id)
	}
	return nil
}
