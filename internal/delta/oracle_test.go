package delta

import (
	"encoding/binary"
	"fmt"

	"arrayvers/internal/array"
	"arrayvers/internal/bitpack"
)

// The scalar reference decoders: the cellwise apply bodies as they were
// before the in-place kernel, kept here as the oracle the differential
// harness (inplace_test.go, FuzzApplyInPlace) drives ApplyInPlace
// against. Deliberately the simplest correct implementation: unpack the
// whole diff plane, then walk it with the generic cell accessors into a
// fresh array.

// scalarApply reconstructs the target (reverse: the base) from a
// cellwise blob without touching from.
func scalarApply(blob []byte, from *array.Dense, reverse bool) (*array.Dense, error) {
	m, err := MethodOf(blob)
	if err != nil {
		return nil, err
	}
	switch m {
	case Dense:
		return scalarApplyDense(blob, from, reverse)
	case Sparse:
		return scalarApplySparse(blob, from, reverse)
	case Hybrid:
		return scalarApplyHybrid(blob, from, reverse)
	default:
		return nil, fmt.Errorf("delta: scalar oracle covers cellwise methods only, got %v", m)
	}
}

func scalarApplyDense(blob []byte, from *array.Dense, reverse bool) (*array.Dense, error) {
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
	return scalarAddPlane(from, diffs, reverse)
}

func scalarApplySparse(blob []byte, from *array.Dense, reverse bool) (*array.Dense, error) {
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
		if reverse {
			out.SetBits(ix, wrapSub(dt, from.Bits(ix), vals[i]))
		} else {
			out.SetBits(ix, wrapAdd(dt, from.Bits(ix), vals[i]))
		}
	}
	return out, nil
}

func scalarApplyHybrid(blob []byte, from *array.Dense, reverse bool) (*array.Dense, error) {
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
	return scalarAddPlane(from, plane, reverse)
}

// scalarOverlay parses nnz | index gaps | diffs, range-checking every
// index against n.
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

func scalarAddPlane(from *array.Dense, plane []int64, reverse bool) (*array.Dense, error) {
	dt := from.DType()
	out, err := array.NewDense(dt, from.Shape())
	if err != nil {
		return nil, err
	}
	for i := range plane {
		ix := int64(i)
		if reverse {
			out.SetBits(ix, wrapSub(dt, from.Bits(ix), plane[i]))
		} else {
			out.SetBits(ix, wrapAdd(dt, from.Bits(ix), plane[i]))
		}
	}
	return out, nil
}
