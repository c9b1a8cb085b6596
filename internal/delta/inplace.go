package delta

import (
	"encoding/binary"
	"errors"
	"fmt"

	"arrayvers/internal/array"
	"arrayvers/internal/bitpack"
)

// The cellwise apply kernel: one function decodes all three cellwise
// methods by rewriting the base's backing bytes in place. Every cell
// gets buf[i] + plane[i], and every overlay entry ends at
// buf[ix] = base[ix] + val. Dense is a plane with no overlay,
// Sparse an overlay with no plane, Hybrid both. The packed plane is
// unpacked in byte-aligned blocks into a stack buffer and added at the
// dtype's native width, so no n-value diff plane is ever allocated, and
// a width-0 plane (every cell outside the overlay unchanged) skips the
// plane pass entirely. The overlay is applied in one streaming pass over
// its index gaps and values, also at native width, after a validation
// pass over the same bytes; nothing is allocated per entry.
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
		if err := applyCellwise(m, blob, buf); err != nil {
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

// applyCellwise rewrites buf from base to target with a blob of
// cellwise method m. Plane and overlay are both validated before the
// first write.
func applyCellwise(m Method, blob []byte, buf *array.Dense) error {
	if err := readHeader(blob, m, buf); err != nil {
		return err
	}
	n := buf.NumCells()
	width, at := 0, 2
	var plane []byte
	if m != Sparse {
		if len(blob) < 3 {
			return fmt.Errorf("delta: truncated %v delta", m)
		}
		width = int(blob[2])
		if err := bitpack.CheckUnpack(len(blob)-3, int(n), width); err != nil {
			return err
		}
		plane, at = blob[3:], 3+int((n*int64(width)+7)/8)
	}
	var ov overlay
	if m != Dense {
		var err error
		if ov, err = checkOverlay(blob[at:], n); err != nil {
			return err
		}
	}
	if width > 0 {
		if err := addPlane(plane, width, buf); err != nil {
			return err
		}
	}
	ov.add(buf, plane, width)
	return nil
}

// ErrOverlayIndex is returned (wrapped) for an overlay whose cell indices
// are not strictly increasing or reach past the array: the encoder never
// writes either, so a repeated, wrapping or out-of-range index is a
// corrupt blob.
var ErrOverlayIndex = errors.New("delta: overlay index not strictly increasing within the array")

// overlay is a validated sparse overlay (nnz uvarint | uvarint index gaps
// | varint diffs): its entry count, index gaps and values.
type overlay struct {
	nnz        int
	gaps, vals []byte
}

// nextUvarint decodes the uvarint at b[p:] of a validated overlay and
// returns it with the position after it. Most gaps and values take one
// byte, which returns at the first test.
func nextUvarint(b []byte, p int) (uint64, int) {
	c := b[p]
	u := uint64(c & 0x7f)
	for s := 7; c >= 0x80; s += 7 {
		p++
		c = b[p]
		u |= uint64(c&0x7f) << s
	}
	return u, p + 1
}

// checkOverlay validates the overlay b of an n-cell array without
// writing anything: every gap and value must decode, and the indices
// the gaps spell must be strictly increasing and below n. The first gap
// counts from cell 0, so only it may be zero.
func checkOverlay(b []byte, n int64) (overlay, error) {
	nnz, pos := binary.Uvarint(b)
	if pos <= 0 {
		return overlay{}, fmt.Errorf("delta: truncated overlay count")
	}
	// each entry needs at least an index byte and a value byte; a count
	// the input cannot back must not drive the loops below
	if nnz > uint64(len(b)-pos)/2 {
		return overlay{}, fmt.Errorf("delta: overlay claims %d entries in %d bytes", nnz, len(b)-pos)
	}
	gaps := b[pos:]
	ix := int64(0)
	for i := 0; i < int(nnz); i++ {
		if pos == len(b) {
			return overlay{}, fmt.Errorf("delta: truncated overlay index %d", i)
		}
		g, k := uint64(b[pos]), 1
		if g >= 0x80 {
			if g, k = binary.Uvarint(b[pos:]); k <= 0 {
				return overlay{}, fmt.Errorf("delta: truncated overlay index %d", i)
			}
		}
		if (g == 0 && i > 0) || g >= uint64(n-ix) {
			return overlay{}, fmt.Errorf("%w: entry %d steps %d from cell %d of %d", ErrOverlayIndex, i, g, ix, n)
		}
		ix += int64(g)
		pos += k
	}
	vals := b[pos:]
	for i := 0; i < int(nnz); i++ {
		if pos < len(b) && b[pos] < 0x80 {
			pos++
			continue
		}
		_, k := binary.Uvarint(b[pos:])
		if k <= 0 {
			return overlay{}, fmt.Errorf("delta: truncated overlay value %d", i)
		}
		pos += k
	}
	return overlay{nnz: int(nnz), gaps: gaps, vals: vals}, nil
}

// add is the overlay pass: one streaming walk of the gaps and values
// together, adding each value at the dtype's native width. An overlay
// cell must end at base + its value whatever
// plane code sits beneath it (the encoder writes 0 there), so under a
// plane of width > 0 that code, which addPlane already applied, is taken
// back out.
func (o overlay) add(buf *array.Dense, plane []byte, width int) {
	data := buf.Bytes()
	esz := buf.DType().Size()
	gp, vp, ix := 0, 0, 0
	var g, u uint64
	for range o.nnz {
		g, gp = nextUvarint(o.gaps, gp)
		ix += int(g)
		u, vp = nextUvarint(o.vals, vp)
		d := bitpack.Unzigzag(u)
		if width > 0 {
			d -= bitpack.SignedAt(plane, ix, width)
		}
		switch c := data[ix*esz:]; esz {
		case 1:
			c[0] += byte(d)
		case 2:
			binary.LittleEndian.PutUint16(c, binary.LittleEndian.Uint16(c)+uint16(d))
		case 4:
			binary.LittleEndian.PutUint32(c, binary.LittleEndian.Uint32(c)+uint32(d))
		default:
			binary.LittleEndian.PutUint64(c, binary.LittleEndian.Uint64(c)+uint64(d))
		}
	}
}

// addPlane adds the packed plane's NumCells width-bit zigzag codes to
// buf's cells at the dtype's native width.
func addPlane(packed []byte, width int, buf *array.Dense) error {
	n := buf.NumCells()
	data := buf.Bytes()
	esz := int64(buf.DType().Size())
	var block [planeBlockVals]int64
	for start := int64(0); start < n; start += planeBlockVals {
		diffs := block[:min(n-start, planeBlockVals)]
		if err := bitpack.UnpackSignedInto(packed[start*int64(width)/8:], len(diffs), width, diffs); err != nil {
			return err
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
