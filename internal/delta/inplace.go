package delta

import (
	"encoding/binary"
	"fmt"

	"arrayvers/internal/array"
	"arrayvers/internal/bitpack"
)

// The cellwise apply kernel: one function decodes all three cellwise
// methods in both directions by rewriting the base's backing bytes in
// place. Every cell gets buf[i] ± plane[i], then every overlay entry
// sets buf[ix] = base[ix] ± val. Dense is a plane with no overlay,
// Sparse an overlay with no plane, Hybrid both. The packed plane is
// unpacked in byte-aligned blocks into a stack buffer and added at the
// dtype's native width, so no n-value diff plane is ever allocated, and
// a width-0 plane (every cell outside the overlay unchanged) skips the
// plane pass entirely.
//
// Equivalence to the cell-accessor reference (scalarApply in
// oracle_test.go, driven by FuzzApplyInPlace): the reference computes
// TruncateBits(dt, base+diff) and stores the low k bytes; the low k
// bytes of a sum depend only on the low k bytes of the addends, so
// native k-byte wrapping arithmetic over the backing bytes is
// bit-identical.

// planeBlockVals is the plane decode-block size. 256 values at any width
// occupy exactly 32*width bytes, so every block starts byte-aligned and
// can be unpacked from a plain sub-slice of the packed plane.
const planeBlockVals = 256

// ApplyInPlace reconstructs the target array from a delta blob, reusing
// buf — the base, which the caller must own exclusively — as the output.
// Cellwise methods (Dense, Sparse, Hybrid) rewrite buf and return it;
// BlockMatch and BSDiff leave buf untouched and return a fresh array.
// The blob is validated before the first cell is written, so on error
// buf is unchanged.
func ApplyInPlace(blob []byte, buf *array.Dense) (*array.Dense, error) {
	m, err := MethodOf(blob)
	if err != nil {
		return nil, err
	}
	switch m {
	case Dense, Sparse, Hybrid:
		if err := applyCellwise(m, blob, buf, false); err != nil {
			return nil, err
		}
		return buf, nil
	case BlockMatch:
		return applyBlockMatch(blob, buf)
	case BSDiff:
		return applyBSDiff(blob, buf)
	default:
		return nil, fmt.Errorf("delta: cannot Apply blob of method %v to a dense base", m)
	}
}

// applyCellwise rewrites buf from base to target (reverse: from target
// to base) with a blob of cellwise method m.
func applyCellwise(m Method, blob []byte, buf *array.Dense, reverse bool) error {
	if err := readHeader(blob, m, buf); err != nil {
		return err
	}
	n := buf.NumCells()
	width, overlay := 0, 2
	if m != Sparse {
		if len(blob) < 3 {
			return fmt.Errorf("delta: truncated %v delta", m)
		}
		width = int(blob[2])
		if err := bitpack.CheckUnpack(len(blob)-3, int(n), width); err != nil {
			return err
		}
		overlay = 3 + int((n*int64(width)+7)/8)
	}
	var idx, vals []int64
	if m != Dense {
		var err error
		if idx, vals, err = parseOverlay(blob[overlay:], buf, reverse); err != nil {
			return err
		}
	}
	if width > 0 {
		if err := addPlane(blob[3:], width, buf, reverse); err != nil {
			return err
		}
	}
	for i, ix := range idx {
		buf.SetBits(ix, vals[i])
	}
	return nil
}

// parseOverlay decodes a sparse overlay (nnz uvarint | uvarint index gaps
// | varint diffs) into cell indices and the values those cells take.
// Each value is computed from buf's current (base) content, so duplicate
// indices resolve last-wins against the base.
func parseOverlay(b []byte, buf *array.Dense, reverse bool) (idx, vals []int64, err error) {
	nnz, pos := binary.Uvarint(b)
	if pos <= 0 {
		return nil, nil, fmt.Errorf("delta: truncated overlay count")
	}
	// each entry needs at least an index byte and a value byte; a count
	// the input cannot back must not size an allocation
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
	dt, n := buf.DType(), buf.NumCells()
	for i, ix := range idx {
		d, k := binary.Varint(b[pos:])
		if k <= 0 {
			return nil, nil, fmt.Errorf("delta: truncated overlay value %d", i)
		}
		pos += k
		if ix < 0 || ix >= n {
			return nil, nil, fmt.Errorf("delta: overlay index %d out of range", ix)
		}
		if reverse {
			vals[i] = wrapSub(dt, buf.Bits(ix), d)
		} else {
			vals[i] = wrapAdd(dt, buf.Bits(ix), d)
		}
	}
	return idx, vals, nil
}

// addPlane adds (reverse: subtracts) the packed plane's NumCells
// width-bit zigzag codes to buf's cells at the dtype's native width.
func addPlane(packed []byte, width int, buf *array.Dense, reverse bool) error {
	n := buf.NumCells()
	data := buf.Bytes()
	esz := int64(buf.DType().Size())
	var block [planeBlockVals]int64
	for start := int64(0); start < n; start += planeBlockVals {
		diffs := block[:min(n-start, planeBlockVals)]
		if err := bitpack.UnpackSignedInto(packed[start*int64(width)/8:], len(diffs), width, diffs); err != nil {
			return err
		}
		if reverse {
			for j := range diffs {
				diffs[j] = -diffs[j]
			}
		}
		d := data[start*esz:]
		switch esz {
		case 1:
			for j, v := range diffs {
				d[j] += byte(v)
			}
		case 2:
			for j, v := range diffs {
				binary.LittleEndian.PutUint16(d[2*j:], binary.LittleEndian.Uint16(d[2*j:])+uint16(v))
			}
		case 4:
			for j, v := range diffs {
				binary.LittleEndian.PutUint32(d[4*j:], binary.LittleEndian.Uint32(d[4*j:])+uint32(v))
			}
		default:
			for j, v := range diffs {
				binary.LittleEndian.PutUint64(d[8*j:], binary.LittleEndian.Uint64(d[8*j:])+uint64(v))
			}
		}
	}
	return nil
}
