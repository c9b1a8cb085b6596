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

// EstimateSize estimates the hybrid-delta encoded size of (target − base)
// from a random sample of R cells, scaled by N/R. If sample <= 0 or
// sample >= N the exact size is computed instead.
func EstimateSize(target, base *array.Dense, sample int, seed int64) int64 {
	n := target.NumCells()
	if sample <= 0 || int64(sample) >= n {
		return int64(len(encodeCellwise(Hybrid, target, base)))
	}
	rng := rand.New(rand.NewSource(seed))
	dt := target.DType()
	var h widthHist
	for i := 0; i < sample; i++ {
		flat := rng.Int63n(n)
		h[bitpack.SignedWidth(wrapDiff(dt, target.Bits(flat), base.Bits(flat)))]++
	}
	width := h.hybridWidth(int64(sample))
	// each outlier: an index gap at the full array's average spacing
	// plus its value varint
	outliers, valBytes := h.wider(width)
	sampleBytes := (int64(sample)*int64(width)+7)/8 + outliers*int64(uvarintLen(uint64(n)/uint64(sample))) + valBytes
	return sampleBytes * n / int64(sample)
}

// MaterializedSize returns the bytes needed to store a dense version in
// native (uncompressed) form: the raw cell payload, "without any prefix
// or header" (§III-B.1).
func MaterializedSize(a *array.Dense) int64 { return a.SizeBytes() }

// SparseMaterializedSize returns the bytes needed to store a sparse
// version in native form (positions + values).
func SparseMaterializedSize(s *array.Sparse) int64 { return s.SizeBytes() }
