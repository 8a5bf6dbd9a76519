package netsim

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"fpcc/internal/control"
	"fpcc/internal/sweep"
)

// sweepConfig64 is a 64-cell grid over (cross-traffic rate, C0) on
// the two-hop cross-traffic topology, small enough to run in tests.
func sweepConfig64(workers int) SweepConfig {
	return SweepConfig{
		Params: []Param{
			{Name: "cross", Values: []float64{0, 5, 10, 15, 20, 25, 30, 35}},
			{Name: "c0", Values: []float64{2, 4, 6, 8, 10, 12, 14, 16}},
		},
		Build: func(values []float64, seed uint64) (Config, error) {
			law, err := control.NewAIMD(values[1], 2, 12)
			if err != nil {
				return Config{}, err
			}
			return CrossChain(CrossChainConfig{
				Mu1: 60, Mu2: 50, Delay: 0.02, Law: law,
				Lambda0: 10, MinRate: 0.5, CrossRate: values[0], Seed: seed,
			})
		},
		Horizon:  60,
		Warmup:   10,
		BaseSeed: 99,
		Workers:  workers,
	}
}

func renderSweep(t *testing.T, r *SweepResult) (csv, js string) {
	t.Helper()
	var cb, jb bytes.Buffer
	if err := r.WriteCSV(&cb); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	return cb.String(), jb.String()
}

// TestSweepDeterministicAcrossWorkers is the acceptance criterion for
// the parallel runner: a >= 64-cell grid must produce byte-identical
// CSV and JSON aggregates for 1 worker and GOMAXPROCS workers.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	serial, err := Sweep(sweepConfig64(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Sweep(sweepConfig64(runtime.GOMAXPROCS(0)))
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Cells) != 64 || len(parallel.Cells) != 64 {
		t.Fatalf("expected 64 cells, got %d and %d", len(serial.Cells), len(parallel.Cells))
	}
	sc, sj := renderSweep(t, serial)
	pc, pj := renderSweep(t, parallel)
	if sc != pc {
		t.Errorf("CSV output differs between 1 worker and %d workers", runtime.GOMAXPROCS(0))
	}
	if sj != pj {
		t.Errorf("JSON output differs between 1 worker and %d workers", runtime.GOMAXPROCS(0))
	}
	// Spot-check the output shape: header plus one row per cell.
	lines := strings.Split(strings.TrimRight(sc, "\n"), "\n")
	if len(lines) != 65 {
		t.Fatalf("CSV has %d lines, want 65", len(lines))
	}
	if want := "index,cross,c0,fairness,delivered,dropped,throughput,mean_queue"; lines[0] != want {
		t.Errorf("CSV header = %q, want %q", lines[0], want)
	}
}

// TestSweepGridOrder: netsim sweeps enumerate the grid row-major
// with the last parameter varying fastest and carry the extracted
// runner's deterministic per-cell seeds (the pre-extraction contract,
// held against the delegated implementation).
func TestSweepGridOrder(t *testing.T) {
	cfg := sweepConfig64(2)
	res, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	grid := sweep.Grid{Dims: cfg.Params}
	for idx, c := range res.Cells {
		if c.Index != idx {
			t.Fatalf("cell %d stored at index %d", c.Index, idx)
		}
		want := grid.Values(idx)
		if c.Values[0] != want[0] || c.Values[1] != want[1] {
			t.Errorf("cell %d values = %v, want %v", idx, c.Values, want)
		}
		if c.Seed != sweep.CellSeed(cfg.BaseSeed, idx) {
			t.Errorf("cell %d seed = %d, want %d", idx, c.Seed, sweep.CellSeed(cfg.BaseSeed, idx))
		}
	}
}

// TestSweepErrors: invalid grids are rejected, and a failing cell
// reports the lowest-indexed failure regardless of worker count.
func TestSweepErrors(t *testing.T) {
	base := sweepConfig64(4)

	bad := base
	bad.Params = nil
	if _, err := Sweep(bad); err == nil {
		t.Error("empty grid accepted")
	}

	bad = base
	bad.Params = []Param{{Name: "", Values: []float64{1}}}
	if _, err := Sweep(bad); err == nil {
		t.Error("unnamed parameter accepted")
	}

	bad = base
	bad.Params = []Param{{Name: "x", Values: nil}}
	if _, err := Sweep(bad); err == nil {
		t.Error("empty value list accepted")
	}

	bad = base
	bad.Build = nil
	if _, err := Sweep(bad); err == nil {
		t.Error("nil Build accepted")
	}

	bad = base
	bad.Workers = -3
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted a negative worker bound")
	}
	if _, err := Sweep(bad); err == nil {
		t.Error("negative worker bound accepted")
	}

	failing := base
	failing.Build = func(values []float64, seed uint64) (Config, error) {
		if values[0] >= 10 { // cells with cross >= 10 fail; lowest such index is 16
			return Config{}, fmt.Errorf("boom at cross=%v", values[0])
		}
		return base.Build(values, seed)
	}
	_, err := Sweep(failing)
	if err == nil {
		t.Fatal("failing cell not reported")
	}
	if !strings.Contains(err.Error(), "cell 16") {
		t.Errorf("error %q does not name the lowest failing cell 16", err)
	}
}
