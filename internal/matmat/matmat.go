// Package matmat builds the paper's Materialization Matrix (§IV-A): an
// n×n symmetric matrix over a series of versions where the diagonal
// MM(i,i) is the space needed to materialize version i and the
// off-diagonal MM(i,j) is the space taken by a delta between versions i
// and j. The matrix drives the layout optimization algorithms.
//
// Construction takes O(n²) pairwise comparisons. The exact mode encodes
// every pair's delta. The sampling mode estimates each delta size from a
// random subset of R cells scaled by N/R, as §IV-A describes, with one
// draw shared by the whole matrix: the R positions are drawn once,
// each version's cells there are read once (O(n·R) random reads), the
// positions where every version holds the same cell are dropped once
// (each is a zero-width difference in every pair), and every pair is
// priced from two contiguous vectors of the K positions left, on a
// worker pool: O(n·R + n²·K) sequential work, where K is what the
// series changes at the sample. Each entry is still the paper's
// estimator over R uniformly random cells; only the independence
// between entries goes. Because the layout algorithms act on
// differences between entries, sharing the draw is the
// common-random-numbers choice: it lowers the variance of exactly those
// differences.
package matmat

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"arrayvers/internal/array"
	"arrayvers/internal/delta"
)

// Matrix is the materialization matrix for n versions.
type Matrix struct {
	N    int
	Cost [][]int64 // Cost[i][j]: i==j materialization size, else delta size
}

// Options controls matrix construction.
type Options struct {
	// Sample, when positive and below the cell count, estimates each
	// pairwise delta size from this many sampled cells instead of
	// encoding the full delta.
	Sample int
	// Seed drives the sampling RNG: the one draw all pairs share.
	Seed int64
}

// New allocates an empty n×n matrix.
func New(n int) *Matrix {
	m := &Matrix{N: n, Cost: make([][]int64, n)}
	for i := range m.Cost {
		m.Cost[i] = make([]int64, n)
	}
	return m
}

// Compute builds the matrix for a series of dense versions using hybrid
// delta sizes (the best cellwise method per Table I) and raw
// materialization sizes. Every version must match versions[0] in shape
// and dtype.
func Compute(versions []*array.Dense, opts Options) (*Matrix, error) {
	n := len(versions)
	if n == 0 {
		return nil, fmt.Errorf("matmat: no versions")
	}
	for i := 1; i < n; i++ {
		if err := delta.CheckPair(versions[i], versions[0]); err != nil {
			return nil, fmt.Errorf("matmat: version %d vs 0: %w", i, err)
		}
	}
	cells := versions[0].NumCells()
	if opts.Sample > 0 && int64(opts.Sample) < cells {
		idx := Draw(cells, opts.Sample, opts.Seed)
		g := make([][]int64, n)
		for i, v := range versions {
			g[i] = delta.Gather(v, idx)
		}
		return FromSamples(versions[0].DType(), cells, g, runtime.GOMAXPROCS(0)), nil
	}
	m := New(n)
	for i := 0; i < n; i++ {
		m.Cost[i][i] = delta.MaterializedSize(versions[i])
		for j := 0; j < i; j++ {
			blob, err := delta.Encode(delta.Hybrid, versions[i], versions[j])
			if err != nil {
				return nil, fmt.Errorf("matmat: delta %d vs %d: %w", i, j, err)
			}
			m.Cost[i][j] = int64(len(blob))
			m.Cost[j][i] = int64(len(blob))
		}
	}
	return m, nil
}

// Draw is the one sample draw the sampled matrix prices every pair
// from: sample positions out of cells, seeded with seed, sorted so the
// gathers read ascending.
func Draw(cells int64, sample int, seed int64) []int64 {
	idx := delta.SampleCells(cells, sample, seed)
	slices.Sort(idx)
	return idx
}

// FromSamples builds the sampled matrix from g[i], version i's cells at
// one Draw, for versions of cells cells of dtype dt each: exactly
// Compute's sampled matrix, for a caller that gathers the cells itself
// (the store reads them chunk by chunk, never assembling a version).
// The pairs are priced on up to workers goroutines, each row's by one,
// so the matrix is the same for any worker count.
func FromSamples(dt array.DataType, cells int64, g [][]int64, workers int) *Matrix {
	n := len(g)
	m := New(n)
	for i := range n {
		m.Cost[i][i] = cells * int64(dt.Size())
	}
	if n < 2 {
		return m
	}
	sample := int64(len(g[0]))
	kept := changed(g)
	forEachRow(n, workers, func(i int) {
		for j := range i {
			size := delta.EstimateSampled(dt, cells, sample, kept[i], kept[j])
			m.Cost[i][j] = size
			m.Cost[j][i] = size
		}
	})
	return m
}

// changed returns each g[i] at only the positions where some version's
// cell differs from version 0's, in their order, all in one backing
// array; g itself when that is every position.
func changed(g [][]int64) [][]int64 {
	moved := make([]bool, len(g[0]))
	for _, gi := range g[1:] {
		gi = gi[:len(moved)]
		for p, v0 := range g[0] {
			moved[p] = moved[p] || gi[p] != v0
		}
	}
	at := make([]int, 0, len(moved))
	for p, m := range moved {
		if m {
			at = append(at, p)
		}
	}
	k := len(at)
	if k == len(moved) {
		return g
	}
	flat := make([]int64, len(g)*k)
	kept := make([][]int64, len(g))
	for i, gi := range g {
		kept[i] = flat[i*k : (i+1)*k : (i+1)*k]
		for x, p := range at {
			kept[i][x] = gi[p]
		}
	}
	return kept
}

// forEachRow calls fn(i) for every row i in [1, n) on up to workers
// goroutines, the longest rows first: row i prices i pairs.
func forEachRow(n, workers int, fn func(i int)) {
	workers = min(workers, n-1)
	if workers <= 1 {
		for i := n - 1; i > 0; i-- {
			fn(i)
		}
		return
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	next.Store(int64(n))
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(-1)); i > 0; i = int(next.Add(-1)) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// ComputeSparse builds the matrix for a series of sparse versions using
// sparse-ops delta sizes.
func ComputeSparse(versions []*array.Sparse) (*Matrix, error) {
	n := len(versions)
	if n == 0 {
		return nil, fmt.Errorf("matmat: no versions")
	}
	m := New(n)
	for i := 0; i < n; i++ {
		m.Cost[i][i] = delta.SparseMaterializedSize(versions[i])
	}
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			blob, err := delta.EncodeSparseOps(versions[i], versions[j])
			if err != nil {
				return nil, fmt.Errorf("matmat: sparse delta %d vs %d: %w", i, j, err)
			}
			m.Cost[i][j] = int64(len(blob))
			m.Cost[j][i] = int64(len(blob))
		}
	}
	return m, nil
}

// Validate checks structural sanity: square, symmetric, non-negative.
func (m *Matrix) Validate() error {
	if m.N != len(m.Cost) {
		return fmt.Errorf("matmat: N=%d but %d rows", m.N, len(m.Cost))
	}
	for i := range m.Cost {
		if len(m.Cost[i]) != m.N {
			return fmt.Errorf("matmat: row %d has %d columns", i, len(m.Cost[i]))
		}
		for j := range m.Cost[i] {
			if m.Cost[i][j] < 0 {
				return fmt.Errorf("matmat: negative cost at (%d,%d)", i, j)
			}
			if m.Cost[i][j] != m.Cost[j][i] {
				return fmt.Errorf("matmat: asymmetric at (%d,%d)", i, j)
			}
		}
	}
	return nil
}

// DeltasAlwaysCheaper reports whether every delta is cheaper than every
// materialization — the assumption under which Algorithm 1 alone is
// optimal ("MM(i,i) > MM(i,j) ∀ j ≠ i", §IV-C).
func (m *Matrix) DeltasAlwaysCheaper() bool {
	for i := 0; i < m.N; i++ {
		for j := 0; j < m.N; j++ {
			if i != j && m.Cost[i][j] >= m.Cost[i][i] {
				return false
			}
		}
	}
	return true
}
