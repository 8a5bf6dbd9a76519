// Package sweep is the engine-agnostic parameter-sweep runner: it
// evaluates an arbitrary cell function over every cell of an
// N-dimensional grid of named parameter dimensions, sharding cells
// across a bounded pool of workers.
//
// The package owns the three properties every sweep in this
// repository relies on, independent of which engine (netsim, des,
// fluid, fokkerplanck, sde, dde, markov) evaluates the cells:
//
//   - Deterministic seeding: each cell's seed is a pure function of
//     (BaseSeed, cell index) via rng.Mix, so stochastic cells
//     reproduce exactly for any worker count.
//   - Order-independent aggregation: results are stored by cell index
//     as workers finish, so the aggregate — and any CSV/JSON rendered
//     from it — is byte-identical for any worker count.
//   - Deterministic failure: a failing cell stops work on every
//     higher-indexed cell (lower-indexed ones still run), so the
//     reported error is always the globally lowest-indexed failure.
//
// Run is the generic entry point (any result type); RunRows adds a
// named-column result schema with byte-stable CSV and JSON emission.
package sweep

import (
	"fmt"
	"sync"
	"sync/atomic"

	"fpcc/internal/obs"
	"fpcc/internal/rng"
)

// Dim is one named axis of a sweep grid.
type Dim struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
}

// Grid is an N-dimensional parameter grid: the cross product of its
// dimensions, enumerated row-major with the last dimension varying
// fastest.
type Grid struct {
	Dims []Dim
}

// Size returns the number of cells (the product of the value counts).
func (g Grid) Size() int {
	n := 1
	for _, d := range g.Dims {
		n *= len(d.Values)
	}
	return n
}

// Validate rejects degenerate grids: no dimensions, unnamed
// dimensions, or dimensions without values.
func (g Grid) Validate() error {
	if len(g.Dims) == 0 {
		return fmt.Errorf("sweep: grid has no dimensions")
	}
	for _, d := range g.Dims {
		if d.Name == "" {
			return fmt.Errorf("sweep: grid dimension with empty name")
		}
		if len(d.Values) == 0 {
			return fmt.Errorf("sweep: grid dimension %q has no values", d.Name)
		}
	}
	return nil
}

// Values decodes cell idx into one value per dimension (row-major:
// the last dimension varies fastest).
func (g Grid) Values(idx int) []float64 {
	vals := make([]float64, len(g.Dims))
	for k := len(g.Dims) - 1; k >= 0; k-- {
		n := len(g.Dims[k].Values)
		vals[k] = g.Dims[k].Values[idx%n]
		idx /= n
	}
	return vals
}

// CellSeed derives the deterministic seed of cell idx from the base
// seed: one SplitMix64 finalization along the golden-ratio sequence
// per cell, so adjacent cells get well-separated streams.
func CellSeed(base uint64, idx int) uint64 {
	return rng.Mix(base + 0x9e3779b97f4a7c15*uint64(idx))
}

// Cell is one point of the grid handed to the cell function: its
// index in grid order, the decoded dimension values, and the cell's
// deterministic seed.
type Cell struct {
	Index  int
	Values []float64
	Seed   uint64
}

// Config describes a sweep: the grid to cover, the base seed every
// cell seed derives from, and the worker bound.
type Config struct {
	Grid Grid
	// BaseSeed derives every cell seed; two sweeps with equal BaseSeed
	// and grid hand identical Cells to the cell function.
	BaseSeed uint64
	// Workers bounds the parallelism (0 = serial; negative is
	// rejected). Callers that want every core pass
	// runtime.GOMAXPROCS(0).
	Workers int
	// Obs, when non-nil, records one "cell" span per evaluated cell,
	// attributed to the worker that ran it. It never affects results
	// — only the trace.
	Obs *obs.Recorder
}

// Validate rejects a degenerate grid or a negative worker bound.
func (c Config) Validate() error {
	if err := c.Grid.Validate(); err != nil {
		return err
	}
	if c.Workers < 0 {
		return fmt.Errorf("sweep: negative worker bound %d", c.Workers)
	}
	return nil
}

// CellError reports the lowest-indexed failing cell of a sweep.
type CellError struct {
	Index int
	Err   error
}

func (e *CellError) Error() string { return fmt.Sprintf("cell %d: %v", e.Index, e.Err) }

// Unwrap exposes the cell function's error to errors.Is/As.
func (e *CellError) Unwrap() error { return e.Err }

// Map evaluates fn(0..n-1) on up to workers goroutines (workers <= 0
// means one) and returns the results in index order. It is the worker pool under Run and
// under the experiment suite runner. Items are distributed by
// work-stealing over per-worker contiguous index ranges: each worker
// drains its own range front-to-back and, when empty, steals the top
// half of the largest leftover range — so uneven grids (a few slow
// cells clustered at one end) don't tail-stall behind one worker.
// Results land by index, so the output is byte-identical for any
// worker count. On failure, every index below the lowest failing one
// is still evaluated (only higher indices are skipped), so the
// returned *CellError is always the globally lowest-indexed failure,
// deterministic regardless of worker count or scheduling.
func Map[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	if fn == nil {
		return nil, fmt.Errorf("sweep: nil function")
	}
	return MapWorker(n, workers, func(_, i int) (T, error) { return fn(i) })
}

// stealRange is one worker's claimable index range [next, limit),
// packed into a single CAS word (next in the high 32 bits, limit in
// the low 32) so owner pops and thief steals are each one
// compare-and-swap. The pad spaces ranges a cache line apart.
type stealRange struct {
	word atomic.Uint64
	_    [56]byte
}

func packRange(next, limit int) uint64 { return uint64(next)<<32 | uint64(limit) }

func unpackRange(w uint64) (next, limit int) { return int(w >> 32), int(w & 0xffffffff) }

// pop claims the lowest index of the range, returning ok=false when
// the range is empty.
func (r *stealRange) pop() (idx int, ok bool) {
	for {
		w := r.word.Load()
		next, limit := unpackRange(w)
		if next >= limit {
			return 0, false
		}
		if r.word.CompareAndSwap(w, packRange(next+1, limit)) {
			return next, true
		}
	}
}

// stealHalf removes the top ⌈half⌉ of the range (the victim keeps
// the bottom half, preserving its front-to-back scan) and returns it.
// The stolen range is never empty: a single remaining item is taken
// whole, so a thief can always relieve a tail-stalled victim.
func (r *stealRange) stealHalf() (next, limit int, ok bool) {
	for {
		w := r.word.Load()
		vNext, vLimit := unpackRange(w)
		avail := vLimit - vNext
		if avail <= 0 {
			return 0, 0, false
		}
		mid := vNext + avail/2
		if r.word.CompareAndSwap(w, packRange(vNext, mid)) {
			return mid, vLimit, true
		}
	}
}

// MapWorker is Map with the executing worker's 0-based index handed
// to fn alongside the item index — the hook for worker-attributed
// span timings (and for per-worker scratch). The worker index must
// not influence any result: scheduling varies run to run, only the
// item index is deterministic.
func MapWorker[T any](n, workers int, fn func(worker, i int) (T, error)) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("sweep: negative item count %d", n)
	}
	if n > 1<<31-1 {
		return nil, fmt.Errorf("sweep: item count %d exceeds 2^31-1", n)
	}
	if fn == nil {
		return nil, fmt.Errorf("sweep: nil function")
	}
	if workers <= 0 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	if n == 0 {
		return []T{}, nil
	}
	results := make([]T, n)
	errs := make([]error, n)
	// Initial partition: contiguous blocks, sized within one of each
	// other, lower-indexed blocks to lower-indexed workers.
	ranges := make([]stealRange, workers)
	block, rem := n/workers, n%workers
	start := 0
	for w := range ranges {
		size := block
		if w < rem {
			size++
		}
		ranges[w].word.Store(packRange(start, start+size))
		start += size
	}
	// lowestFail is the lowest failing index seen so far (n = none).
	// Indices above it are skipped; indices below it always run, which
	// pins the reported failure to the globally lowest one.
	var lowestFail atomic.Int64
	lowestFail.Store(int64(n))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				idx, ok := ranges[w].pop()
				if !ok {
					// Own range drained: steal the top half of another
					// worker's range. Install the remainder as our own
					// range immediately (our word is empty, and empty
					// ranges are never stolen from, so a plain Store is
					// race-free).
					for off := 1; off < workers; off++ {
						v := (w + off) % workers
						if next, limit, stole := ranges[v].stealHalf(); stole {
							idx, ok = next, true
							ranges[w].word.Store(packRange(next+1, limit))
							break
						}
					}
					if !ok {
						return
					}
				}
				if int64(idx) > lowestFail.Load() {
					continue
				}
				var err error
				results[idx], err = fn(w, idx)
				if err != nil {
					errs[idx] = err
					for {
						cur := lowestFail.Load()
						if int64(idx) >= cur || lowestFail.CompareAndSwap(cur, int64(idx)) {
							break
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for idx, err := range errs {
		if err != nil {
			return nil, &CellError{Index: idx, Err: err}
		}
	}
	return results, nil
}

// Run evaluates fn on every cell of the grid and returns the results
// in grid order. Cells run concurrently on up to cfg.Workers
// goroutines; the results (and any error, a *CellError for the
// lowest-indexed failing cell) are independent of the worker count.
func Run[T any](cfg Config, fn func(Cell) (T, error)) ([]T, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if fn == nil {
		return nil, fmt.Errorf("sweep: nil cell function")
	}
	return MapWorker(cfg.Grid.Size(), cfg.Workers, func(w, idx int) (T, error) {
		sp := cfg.Obs.WorkerSpan("cell", w)
		defer sp.End()
		return fn(Cell{
			Index:  idx,
			Values: cfg.Grid.Values(idx),
			Seed:   CellSeed(cfg.BaseSeed, idx),
		})
	})
}
