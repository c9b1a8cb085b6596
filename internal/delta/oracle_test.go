package delta

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"arrayvers/internal/array"
	"arrayvers/internal/bitpack"
)

// The scalar references: the cellwise encode and apply bodies and the
// sampled size estimate as they were before the two kernels, kept here
// as the oracles the differential harnesses drive the kernels against —
// inplace_test.go and FuzzApplyInPlace for ApplyInPlace, encode_test.go
// and FuzzEncode for the encode kernel and the sampled estimate.
// Deliberately the simplest correct implementations: materialize every
// cell's difference through the generic cell accessors, then pack or
// walk the whole plane.

// scalarEncode encodes target against base with cellwise method m.
func scalarEncode(m Method, target, base *array.Dense) []byte {
	switch m {
	case Dense:
		return scalarEncodeDense(target, base)
	case Sparse:
		return scalarEncodeSparse(target, base)
	case Hybrid:
		return scalarEncodeHybrid(target, base)
	default:
		panic(fmt.Sprintf("delta: scalar oracle covers cellwise methods only, got %v", m))
	}
}

func scalarEncodeDense(target, base *array.Dense) []byte {
	n := target.NumCells()
	dt := target.DType()
	diffs := make([]int64, n)
	width := 0
	for i := int64(0); i < n; i++ {
		d := wrapDiff(dt, target.Bits(i), base.Bits(i))
		diffs[i] = d
		if w := bitpack.SignedWidth(d); w > width {
			width = w
		}
	}
	out := putHeader(Dense, dt)
	out = append(out, byte(width))
	return append(out, bitpack.PackSigned(diffs, width)...)
}

func scalarEncodeSparse(target, base *array.Dense) []byte {
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

func scalarEncodeHybrid(target, base *array.Dense) []byte {
	n := target.NumCells()
	dt := target.DType()
	diffs := make([]int64, n)
	widths := make([]int, n)
	maxW := 0
	for i := int64(0); i < n; i++ {
		d := wrapDiff(dt, target.Bits(i), base.Bits(i))
		diffs[i] = d
		widths[i] = bitpack.SignedWidth(d)
		if widths[i] > maxW {
			maxW = widths[i]
		}
	}
	width := scalarChooseHybridWidth(diffs, widths, maxW, n)
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
	out = append(out, bitpack.PackSigned(plane, width)...)
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

// scalarChooseHybridWidth picks the dense-plane width minimizing the
// exact encoded size: n*D bits for the plane plus index+value varints for
// every cell wider than D.
func scalarChooseHybridWidth(diffs []int64, widths []int, maxW int, n int64) int {
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

func varintLen(v int64) int {
	return uvarintLen(uint64((v << 1) ^ (v >> 63)))
}

// scalarEstimate is estimateSize through the scalar references.
func scalarEstimate(target, base *array.Dense, sample int, seed int64) int64 {
	n := target.NumCells()
	if sample <= 0 || int64(sample) >= n {
		return int64(len(scalarEncodeHybrid(target, base)))
	}
	rng := rand.New(rand.NewSource(seed))
	dt := target.DType()
	diffs := make([]int64, sample)
	widths := make([]int, sample)
	maxW := 0
	for i := range diffs {
		flat := rng.Int63n(n)
		d := wrapDiff(dt, target.Bits(flat), base.Bits(flat))
		diffs[i] = d
		widths[i] = bitpack.SignedWidth(d)
		if widths[i] > maxW {
			maxW = widths[i]
		}
	}
	width := scalarChooseHybridWidth(diffs, widths, maxW, int64(sample))
	sampleBytes := (int64(sample)*int64(width) + 7) / 8
	for i := range diffs {
		if widths[i] > width {
			// outlier: index gap + value varint
			sampleBytes += int64(uvarintLen(uint64(n)/uint64(sample))) + int64(varintLen(diffs[i]))
		}
	}
	return sampleBytes * n / int64(sample)
}

// scalarApply reconstructs the target from a cellwise blob without
// touching from.
func scalarApply(blob []byte, from *array.Dense) (*array.Dense, error) {
	m, err := MethodOf(blob)
	if err != nil {
		return nil, err
	}
	switch m {
	case Dense:
		return scalarApplyDense(blob, from)
	case Sparse:
		return scalarApplySparse(blob, from)
	case Hybrid:
		return scalarApplyHybrid(blob, from)
	default:
		return nil, fmt.Errorf("delta: scalar oracle covers cellwise methods only, got %v", m)
	}
}

func scalarApplyDense(blob []byte, from *array.Dense) (*array.Dense, error) {
	if err := readHeader(blob, Dense, from); err != nil {
		return nil, err
	}
	if len(blob) < 3 {
		return nil, fmt.Errorf("delta: truncated dense delta")
	}
	n := from.NumCells()
	diffs, err := bitpack.UnpackSigned(blob[3:], int(n), int(blob[2]))
	if err != nil {
		return nil, err
	}
	return scalarAddPlane(from, diffs)
}

func scalarApplySparse(blob []byte, from *array.Dense) (*array.Dense, error) {
	if err := readHeader(blob, Sparse, from); err != nil {
		return nil, err
	}
	idx, vals, err := scalarOverlay(blob[2:], from.NumCells())
	if err != nil {
		return nil, err
	}
	out := from.Clone()
	dt := from.DType()
	for i, ix := range idx {
		out.SetBits(ix, wrapAdd(dt, from.Bits(ix), vals[i]))
	}
	return out, nil
}

func scalarApplyHybrid(blob []byte, from *array.Dense) (*array.Dense, error) {
	if err := readHeader(blob, Hybrid, from); err != nil {
		return nil, err
	}
	if len(blob) < 3 {
		return nil, fmt.Errorf("delta: truncated hybrid delta")
	}
	width := int(blob[2])
	if width > 64 {
		return nil, fmt.Errorf("delta: hybrid width %d out of range", width)
	}
	n := from.NumCells()
	planeBytes := int((n*int64(width) + 7) / 8)
	if len(blob) < 3+planeBytes {
		return nil, fmt.Errorf("delta: truncated hybrid dense plane")
	}
	idx, vals, err := scalarOverlay(blob[3+planeBytes:], n)
	if err != nil {
		return nil, err
	}
	plane, err := bitpack.UnpackSigned(blob[3:3+planeBytes], int(n), width)
	if err != nil {
		return nil, err
	}
	// outlier cells override whatever the packed plane stored (the
	// encoder writes 0 there)
	for i := range idx {
		plane[idx[i]] = vals[i]
	}
	return scalarAddPlane(from, plane)
}

// scalarOverlay parses nnz | index gaps | diffs, range-checking every
// index against n. Indices must also be strictly increasing (only the
// first gap may be zero): the encoder never writes anything else, and
// the kernel rejects a repeated index rather than picking a winner, so
// the oracle must reject the same blobs to stay comparable.
func scalarOverlay(b []byte, n int64) (idx, vals []int64, err error) {
	nnz, pos := binary.Uvarint(b)
	if pos <= 0 {
		return nil, nil, fmt.Errorf("delta: truncated overlay count")
	}
	if nnz > uint64(len(b)-pos)/2 {
		return nil, nil, fmt.Errorf("delta: overlay claims %d entries in %d bytes", nnz, len(b)-pos)
	}
	idx = make([]int64, nnz)
	prev := int64(0)
	for i := range idx {
		g, k := binary.Uvarint(b[pos:])
		if k <= 0 {
			return nil, nil, fmt.Errorf("delta: truncated overlay index %d", i)
		}
		if (i > 0 && g == 0) || g >= uint64(n) {
			return nil, nil, fmt.Errorf("delta: overlay entry %d repeats or wraps its index", i)
		}
		prev += int64(g)
		idx[i] = prev
		pos += k
	}
	vals = make([]int64, nnz)
	for i := range idx {
		d, k := binary.Varint(b[pos:])
		if k <= 0 {
			return nil, nil, fmt.Errorf("delta: truncated overlay value %d", i)
		}
		pos += k
		if idx[i] < 0 || idx[i] >= n {
			return nil, nil, fmt.Errorf("delta: overlay index %d out of range", idx[i])
		}
		vals[i] = d
	}
	return idx, vals, nil
}

func scalarAddPlane(from *array.Dense, plane []int64) (*array.Dense, error) {
	dt := from.DType()
	out, err := array.NewDense(dt, from.Shape())
	if err != nil {
		return nil, err
	}
	for i := range plane {
		ix := int64(i)
		out.SetBits(ix, wrapAdd(dt, from.Bits(ix), plane[i]))
	}
	return out, nil
}
