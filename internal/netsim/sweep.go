package netsim

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"fpcc/internal/stats"
	"fpcc/internal/sweep"
)

// This file is the netsim client of the engine-agnostic sweep runner
// (internal/sweep): it maps one grid cell to a simulation Config,
// runs it, and aggregates per-flow throughput, fairness and per-node
// queue statistics. The worker pool, deterministic per-cell seeding,
// early abort and order-independent result assembly all live in
// internal/sweep; determinism under parallelism (byte-identical
// CSV/JSON for any worker count) is inherited from it.

// Param is one axis of the sweep grid.
type Param = sweep.Dim

// SweepConfig describes a parameter sweep.
type SweepConfig struct {
	// Params spans the grid; the cell count is the product of the
	// value counts. The last parameter varies fastest (row-major).
	Params []Param
	// Build maps one grid cell to a simulation Config. values[k] is
	// the value of Params[k] at this cell; seed is the cell's
	// deterministic seed and should be passed into Config.Seed.
	Build func(values []float64, seed uint64) (Config, error)
	// Horizon and Warmup are passed to every cell's Run.
	Horizon float64
	Warmup  float64
	// BaseSeed derives every cell seed; two sweeps with equal
	// BaseSeed and grid run identical simulations.
	BaseSeed uint64
	// Workers bounds the parallelism (0 = serial; negative is
	// rejected). Callers that want every core pass
	// runtime.GOMAXPROCS(0).
	Workers int
}

// Validate rejects a sweep without a Build function or with a
// negative worker bound; the grid itself is checked by the sweep
// runner.
func (c *SweepConfig) Validate() error {
	switch {
	case c.Build == nil:
		return fmt.Errorf("netsim: sweep has nil Build")
	case c.Workers < 0:
		return fmt.Errorf("netsim: sweep has negative worker bound %d", c.Workers)
	}
	return nil
}

// CellResult is the aggregate of one grid cell.
type CellResult struct {
	Index      int       `json:"index"`
	Values     []float64 `json:"values"`
	Seed       uint64    `json:"seed"`
	Throughput []float64 `json:"throughput"`
	Fairness   float64   `json:"fairness"`
	MeanQueue  []float64 `json:"mean_queue"`
	Delivered  int64     `json:"delivered"`
	Dropped    int64     `json:"dropped"`
}

// SweepResult holds every cell of a completed sweep in grid order.
type SweepResult struct {
	Params []Param      `json:"params"`
	Cells  []CellResult `json:"cells"`
}

// Sweep runs every cell of the grid and returns the results in grid
// order. Cells run concurrently on up to Workers goroutines; the
// result (and any error, which is reported for the lowest-indexed
// failing cell) is independent of the worker count. A failing cell
// stops the sweep early: already-claimed cells finish, unclaimed
// ones are never started.
func Sweep(cfg SweepConfig) (*SweepResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cells, err := sweep.Run(sweep.Config{
		Grid:     sweep.Grid{Dims: cfg.Params},
		BaseSeed: cfg.BaseSeed,
		Workers:  cfg.Workers,
	}, func(c sweep.Cell) (CellResult, error) {
		return runCell(cfg, c)
	})
	if err != nil {
		// CellErrors read "cell %d: ..." and want the "sweep" noun;
		// validation errors already carry the "sweep:" prefix.
		var ce *sweep.CellError
		if errors.As(err, &ce) {
			return nil, fmt.Errorf("netsim: sweep %w", err)
		}
		return nil, fmt.Errorf("netsim: %w", err)
	}
	return &SweepResult{Params: cfg.Params, Cells: cells}, nil
}

// runCell builds and runs one grid cell.
func runCell(cfg SweepConfig, c sweep.Cell) (CellResult, error) {
	simCfg, err := cfg.Build(c.Values, c.Seed)
	if err != nil {
		return CellResult{}, err
	}
	sim, err := New(simCfg)
	if err != nil {
		return CellResult{}, err
	}
	res, err := sim.Run(cfg.Horizon, cfg.Warmup)
	if err != nil {
		return CellResult{}, err
	}
	cell := CellResult{
		Index:      c.Index,
		Values:     c.Values,
		Seed:       c.Seed,
		Throughput: res.Throughput,
		Fairness:   finiteOrZero(stats.JainIndex(res.Throughput)),
		MeanQueue:  make([]float64, len(res.NodeQueue)),
	}
	for h := range res.NodeQueue {
		cell.MeanQueue[h] = finiteOrZero(res.NodeQueue[h].Mean())
	}
	for i := range res.Delivered {
		cell.Delivered += res.Delivered[i]
		cell.Dropped += res.Dropped[i]
	}
	return cell, nil
}

// finiteOrZero maps the NaN of an empty statistic (e.g. fairness of
// an all-zero allocation) to 0, keeping the aggregates JSON-encodable.
func finiteOrZero(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// generic converts the sweep into the generic emission schema, which
// owns the byte-stable CSV rendering.
func (r *SweepResult) generic() *sweep.Result {
	out := &sweep.Result{
		Dims:    r.Params,
		Columns: []string{"fairness", "delivered", "dropped", "throughput", "mean_queue"},
		Cells:   make([]sweep.CellRow, len(r.Cells)),
	}
	for i, c := range r.Cells {
		out.Cells[i] = sweep.CellRow{
			Index:  c.Index,
			Values: c.Values,
			Seed:   c.Seed,
			Row:    sweep.Row{c.Fairness, c.Delivered, c.Dropped, c.Throughput, c.MeanQueue},
		}
	}
	return out
}

// WriteCSV renders the sweep as CSV: one row per cell with the
// parameter values, the scalar aggregates, and the per-flow
// throughput and per-node mean-queue vectors joined with ';'.
func (r *SweepResult) WriteCSV(w io.Writer) error {
	return r.generic().WriteCSV(w)
}

// WriteJSON renders the sweep as indented JSON.
func (r *SweepResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
