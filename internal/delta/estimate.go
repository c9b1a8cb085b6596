package delta

import (
	"math/rand"

	"arrayvers/internal/array"
	"arrayvers/internal/bitpack"
)

// Sampled delta-size estimation (paper §IV-A): "computing the space S to
// store the deltas based on a random sample of R of the total of N cells
// for a pair of matrices and then computing S×R/N yields a fairly
// approximate estimate of the actual delta size, even for S/N values of
// .1% or less." The sample feeds the same width histogram and cost model
// the hybrid encoder (cellwise.go) chooses its plane width with; the
// exact size is that encoder's output.
//
// The estimator comes in three pieces so that a caller pricing many
// pairs over one series can share the draw: SampleCells draws the R
// positions, Gather reads one version's cells at them, and
// EstimateSampled prices a pair from two gathered vectors. The
// materialization matrix (internal/matmat) draws once, gathers each of
// its n versions once — O(n·R) random reads — and prices all n²/2 pairs
// from contiguous vectors. A position where every version holds the
// same cell adds a zero-width difference to every pair's histogram, so
// the matrix drops those positions once and passes each pair only the
// K that some version changes, with R: O(n·R + n²·K) work, where K is
// what a series actually changes at the sample (most positions are
// constant in a series of small updates; every one changes in a series
// of whole-array noise). Each entry is still the estimator over R
// uniformly random cells; only the independence between entries goes,
// and since the layout algorithms compare entries, the shared draw
// (common random numbers) lowers the variance of exactly the
// differences they act on. The store prices the one pair an insert
// tries exactly instead, by encoding it (EncodeHybridUnder), so the
// sampled estimator serves only the matrix.

// SampleCells draws sample uniformly random flat positions out of n
// cells (with replacement) from a source seeded with seed. The same
// arguments always draw the same positions in the same order.
func SampleCells(n int64, sample int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	idx := make([]int64, sample)
	for i := range idx {
		idx[i] = rng.Int63n(n)
	}
	return idx
}

// Gather returns the bit patterns of a's cells at the flat positions idx.
func Gather(a *array.Dense, idx []int64) []int64 {
	out := make([]int64, len(idx))
	for i, flat := range idx {
		out[i] = a.Bits(flat)
	}
	return out
}

// EstimateSampled estimates the hybrid-delta encoded size of (target −
// base) over n cells of dtype dt from a sample of R = sample cells: t
// and b are the bit patterns the two hold at those of the R sampled
// positions where they may differ, and at the other R − len(t) the two
// are equal. It builds the width histogram of the R differences, takes
// the hybrid width its cost model picks, and scales the sample's cost
// by N/R. R is positive and at least len(t), t and b are equally long,
// and the order of the positions does not matter.
func EstimateSampled(dt array.DataType, n, sample int64, t, b []int64) int64 {
	b = b[:len(t)] // one bounds check, not one per cell
	// every position left out is a zero-width difference
	var h widthHist
	h[0] = sample - int64(len(t))
	// wrapDiff with the dtype's lane shift hoisted out of the loop: the
	// matrix runs this loop for every pair
	shift := uint(64 - dt.Size()*8)
	for i, tv := range t {
		h[bitpack.SignedWidth(int64(uint64(tv-b[i])<<shift)>>shift)]++
	}
	width := h.hybridWidth(sample)
	// each outlier: an index gap at the full array's average spacing
	// plus its value varint
	outliers, valBytes := h.wider(width)
	sampleBytes := (sample*int64(width)+7)/8 + outliers*int64(uvarintLen(uint64(n)/uint64(sample))) + valBytes
	return sampleBytes * n / sample
}

// MaterializedSize returns the bytes needed to store a dense version in
// native (uncompressed) form: the raw cell payload, "without any prefix
// or header" (§III-B.1).
func MaterializedSize(a *array.Dense) int64 { return a.SizeBytes() }

// SparseMaterializedSize returns the bytes needed to store a sparse
// version in native form (positions + values).
func SparseMaterializedSize(s *array.Sparse) int64 { return s.SizeBytes() }
