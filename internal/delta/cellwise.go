package delta

import (
	"encoding/binary"

	"arrayvers/internal/array"
)

// Cellwise delta methods: dense (uniform D-bit packing), sparse
// (position+difference pairs), and hybrid (D-bit dense part plus a sparse
// overlay of wide outliers). The encoders live here; all three decode
// through the one in-place kernel in inplace.go.

// --- Dense ---
//
// Layout: header | width byte | bit-packed zigzag diffs (NumCells values).
// Width 0 encodes "identical arrays" and occupies no payload at all
// ("if Ai and Aj are identical, the delta data will use negligible space
// on disk", §III-B.3).

func encodeDense(target, base *array.Dense) []byte {
	n := target.NumCells()
	dt := target.DType()
	diffs := make([]int64, n)
	width := 0
	for i := int64(0); i < n; i++ {
		d := wrapDiff(dt, target.Bits(i), base.Bits(i))
		diffs[i] = d
		if w := signedWidth(d); w > width {
			width = w
		}
	}
	out := putHeader(Dense, dt)
	out = append(out, byte(width))
	return append(out, packSigned(diffs, width)...)
}

// --- Sparse ---
//
// Layout: header | nnz uvarint | uvarint index gaps | varint diffs.
// Only cells whose difference is nonzero are stored ("relatively few
// differences will have nonzero values", §V-A).

func encodeSparse(target, base *array.Dense) []byte {
	n := target.NumCells()
	dt := target.DType()
	var idx []int64
	var diffs []int64
	for i := int64(0); i < n; i++ {
		if d := wrapDiff(dt, target.Bits(i), base.Bits(i)); d != 0 {
			idx = append(idx, i)
			diffs = append(diffs, d)
		}
	}
	out := putHeader(Sparse, dt)
	out = binary.AppendUvarint(out, uint64(len(idx)))
	prev := int64(0)
	for _, ix := range idx {
		out = binary.AppendUvarint(out, uint64(ix-prev))
		prev = ix
	}
	for _, d := range diffs {
		out = binary.AppendVarint(out, d)
	}
	return out
}

// --- Hybrid ---
//
// The difference array is split at an optimal width threshold D: every
// cell is stored in a D-bit dense plane (outliers as 0), and cells whose
// difference needs more than D bits go into a sparse overlay. The
// threshold is chosen by exact cost minimization over all candidate
// widths, which generalizes the paper's fraction-F rule.
//
// Layout: header | width byte | packed dense plane | nnz uvarint |
//         uvarint index gaps | varint outlier diffs.

func encodeHybrid(target, base *array.Dense) []byte {
	n := target.NumCells()
	dt := target.DType()
	diffs := make([]int64, n)
	widths := make([]int, n)
	maxW := 0
	for i := int64(0); i < n; i++ {
		d := wrapDiff(dt, target.Bits(i), base.Bits(i))
		diffs[i] = d
		widths[i] = signedWidth(d)
		if widths[i] > maxW {
			maxW = widths[i]
		}
	}
	width := chooseHybridWidth(diffs, widths, maxW, n)
	out := putHeader(Hybrid, dt)
	out = append(out, byte(width))
	// dense plane: outliers become 0
	plane := make([]int64, n)
	var outIdx, outDiff []int64
	for i := int64(0); i < n; i++ {
		if widths[i] <= width {
			plane[i] = diffs[i]
		} else {
			outIdx = append(outIdx, i)
			outDiff = append(outDiff, diffs[i])
		}
	}
	out = append(out, packSigned(plane, width)...)
	out = binary.AppendUvarint(out, uint64(len(outIdx)))
	prev := int64(0)
	for _, ix := range outIdx {
		out = binary.AppendUvarint(out, uint64(ix-prev))
		prev = ix
	}
	for _, d := range outDiff {
		out = binary.AppendVarint(out, d)
	}
	return out
}

// chooseHybridWidth picks the dense-plane width minimizing the exact
// encoded size: n*D bits for the plane plus index+value varints for every
// cell wider than D.
func chooseHybridWidth(diffs []int64, widths []int, maxW int, n int64) int {
	// per-width outlier cost via suffix sums
	valCost := make([]int64, maxW+2)  // varint bytes of outliers wider than D
	cntWider := make([]int64, maxW+2) // number of outliers wider than D
	for i := range diffs {
		w := widths[i]
		valCost[w] += int64(varintLen(diffs[i]))
		cntWider[w]++
	}
	// turn into suffix sums: cost for threshold D = sum over w > D
	for w := maxW - 1; w >= 0; w-- {
		valCost[w] += valCost[w+1]
		cntWider[w] += cntWider[w+1]
	}
	bestW, bestCost := maxW, int64(1)<<62
	for D := 0; D <= maxW; D++ {
		planeBytes := (n*int64(D) + 7) / 8
		var outliers, vBytes int64
		if D+1 <= maxW {
			outliers = cntWider[D+1]
			vBytes = valCost[D+1]
		}
		// index gaps: approximate each as uvarint of the average gap
		idxBytes := int64(0)
		if outliers > 0 {
			avgGap := uint64(n) / uint64(outliers)
			idxBytes = outliers * int64(uvarintLen(avgGap))
		}
		cost := planeBytes + vBytes + idxBytes
		if cost < bestCost {
			bestCost = cost
			bestW = D
		}
	}
	return bestW
}
