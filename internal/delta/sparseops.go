package delta

import (
	"encoding/binary"
	"fmt"

	"arrayvers/internal/array"
)

// SparseOps is the delta between two *sparse* array versions, used for
// sparse datasets such as ConceptNet: a merged edit list recording, for
// every flat index where the two versions differ, both the base and the
// target bit patterns; ApplySparseOps writes the target's and only
// checks that the base's decode. Both versions must share dtype, shape
// and fill value.
//
// Layout: [method][dtype] | fill varint | nedits uvarint |
//         uvarint index gaps | varint(old−fill) | varint(new−fill).

// EncodeSparseOps computes the delta blob that takes base to target.
func EncodeSparseOps(target, base *array.Sparse) ([]byte, error) {
	if target.DType() != base.DType() {
		return nil, fmt.Errorf("delta: dtype mismatch %v vs %v", target.DType(), base.DType())
	}
	if target.NDim() != base.NDim() {
		return nil, fmt.Errorf("delta: dimensionality mismatch %d vs %d", target.NDim(), base.NDim())
	}
	for i, s := range target.Shape() {
		if base.Shape()[i] != s {
			return nil, fmt.Errorf("delta: shape mismatch %v vs %v", target.Shape(), base.Shape())
		}
	}
	if target.Fill() != base.Fill() {
		return nil, fmt.Errorf("delta: fill mismatch %d vs %d", target.Fill(), base.Fill())
	}
	fill := target.Fill()
	// merge the two sorted pair lists
	type entry struct{ idx, oldV, newV int64 }
	var edits []entry
	var tIdx, tVal, bIdx, bVal []int64
	target.Pairs(func(i, v int64) { tIdx = append(tIdx, i); tVal = append(tVal, v) })
	base.Pairs(func(i, v int64) { bIdx = append(bIdx, i); bVal = append(bVal, v) })
	ti, bi := 0, 0
	for ti < len(tIdx) || bi < len(bIdx) {
		switch {
		case bi >= len(bIdx) || (ti < len(tIdx) && tIdx[ti] < bIdx[bi]):
			edits = append(edits, entry{tIdx[ti], fill, tVal[ti]})
			ti++
		case ti >= len(tIdx) || bIdx[bi] < tIdx[ti]:
			edits = append(edits, entry{bIdx[bi], bVal[bi], fill})
			bi++
		default: // same index
			if tVal[ti] != bVal[bi] {
				edits = append(edits, entry{tIdx[ti], bVal[bi], tVal[ti]})
			}
			ti++
			bi++
		}
	}
	out := []byte{byte(SparseOps), byte(target.DType())}
	out = binary.AppendVarint(out, fill)
	out = binary.AppendUvarint(out, uint64(len(edits)))
	prev := int64(0)
	for _, e := range edits {
		out = binary.AppendUvarint(out, uint64(e.idx-prev))
		prev = e.idx
	}
	for _, e := range edits {
		out = binary.AppendVarint(out, wrapDiff(target.DType(), e.oldV, fill))
	}
	for _, e := range edits {
		out = binary.AppendVarint(out, wrapDiff(target.DType(), e.newV, fill))
	}
	return out, nil
}

// ApplySparseOps reconstructs the target sparse array from the base.
func ApplySparseOps(blob []byte, from *array.Sparse) (*array.Sparse, error) {
	if len(blob) < 2 || Method(blob[0]) != SparseOps {
		return nil, fmt.Errorf("delta: not a sparseops blob")
	}
	if array.DataType(blob[1]) != from.DType() {
		return nil, fmt.Errorf("delta: sparseops dtype %v, base dtype %v", array.DataType(blob[1]), from.DType())
	}
	pos := 2
	fill, k := binary.Varint(blob[pos:])
	if k <= 0 {
		return nil, fmt.Errorf("delta: truncated sparseops fill")
	}
	pos += k
	if fill != from.Fill() {
		return nil, fmt.Errorf("delta: sparseops fill %d, array fill %d", fill, from.Fill())
	}
	n, k := binary.Uvarint(blob[pos:])
	if k <= 0 {
		return nil, fmt.Errorf("delta: truncated sparseops count")
	}
	pos += k
	// every edit carries an index gap plus two value varints, one byte
	// minimum each; reject counts the input cannot back before allocating
	if n > uint64(len(blob)-pos)/3 {
		return nil, fmt.Errorf("delta: sparseops claims %d edits in %d bytes", n, len(blob)-pos)
	}
	idx := make([]int64, n)
	prev := int64(0)
	for i := range idx {
		g, k := binary.Uvarint(blob[pos:])
		if k <= 0 {
			return nil, fmt.Errorf("delta: truncated sparseops index %d", i)
		}
		prev += int64(g)
		idx[i] = prev
		pos += k
	}
	dt := from.DType()
	readVals := func() ([]int64, error) {
		vals := make([]int64, n)
		for i := range vals {
			d, k := binary.Varint(blob[pos:])
			if k <= 0 {
				return nil, fmt.Errorf("delta: truncated sparseops value %d", i)
			}
			pos += k
			vals[i] = wrapAdd(dt, fill, d)
		}
		return vals, nil
	}
	// the blob carries each edited cell's base value too; a forward
	// apply only checks that they decode
	if _, err := readVals(); err != nil {
		return nil, err
	}
	newV, err := readVals()
	if err != nil {
		return nil, err
	}
	out := from.Clone()
	total := from.NumCells()
	for i := range idx {
		if idx[i] < 0 || idx[i] >= total {
			return nil, fmt.Errorf("delta: sparseops index %d out of range", idx[i])
		}
		out.SetBits(idx[i], newV[i])
	}
	return out, nil
}
