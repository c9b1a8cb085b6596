package array

import (
	"fmt"
)

// Dense is a bounded rectangular array stored in row-major order
// (paper §III-A). All cells hold a value of the same DataType; cell
// values are addressed either by N-dimensional coordinates or by their
// row-major flat index.
type Dense struct {
	dtype DataType
	shape []int64
	data  []byte // row-major, little-endian, len = NumCells*dtype.Size()
}

// checkedNumCells validates a shape and returns its cell count,
// rejecting non-positive extents and products that overflow int64 —
// decoded blobs carry shapes, so a hostile shape must fail before any
// allocation sized by it.
func checkedNumCells(shape []int64) (int64, error) {
	if len(shape) == 0 {
		return 0, fmt.Errorf("array: array needs at least one dimension")
	}
	n := int64(1)
	for i, s := range shape {
		if s <= 0 {
			return 0, fmt.Errorf("array: dimension %d has non-positive extent %d", i, s)
		}
		if n > (1<<62)/s {
			return 0, fmt.Errorf("array: shape %v cell count overflows", shape)
		}
		n *= s
	}
	return n, nil
}

// NewDense allocates a zero-filled dense array.
func NewDense(dtype DataType, shape []int64) (*Dense, error) {
	if !dtype.Valid() {
		return nil, fmt.Errorf("array: invalid dtype %d", dtype)
	}
	n, err := checkedNumCells(shape)
	if err != nil {
		return nil, err
	}
	if n > (1<<62)/int64(dtype.Size()) {
		return nil, fmt.Errorf("array: shape %v byte size overflows", shape)
	}
	return &Dense{
		dtype: dtype,
		shape: append([]int64(nil), shape...),
		data:  make([]byte, n*int64(dtype.Size())),
	}, nil
}

// MustDense is NewDense panicking on error; for tests and generators.
func MustDense(dtype DataType, shape []int64) *Dense {
	d, err := NewDense(dtype, shape)
	if err != nil {
		panic(err)
	}
	return d
}

// DenseFromBytes wraps an existing row-major buffer. The buffer is not
// copied; it must have exactly NumCells*dtype.Size() bytes. The size
// check runs before any allocation, so a hostile shape cannot drive an
// oversized zero-fill.
func DenseFromBytes(dtype DataType, shape []int64, data []byte) (*Dense, error) {
	if !dtype.Valid() {
		return nil, fmt.Errorf("array: invalid dtype %d", dtype)
	}
	n, err := checkedNumCells(shape)
	if err != nil {
		return nil, err
	}
	if n > (1<<62)/int64(dtype.Size()) || int64(len(data)) != n*int64(dtype.Size()) {
		return nil, fmt.Errorf("array: buffer has %d bytes, shape %v wants %d cells of %d bytes", len(data), shape, n, dtype.Size())
	}
	return &Dense{
		dtype: dtype,
		shape: append([]int64(nil), shape...),
		data:  data,
	}, nil
}

// DType returns the cell type.
func (d *Dense) DType() DataType { return d.dtype }

// Shape returns the per-dimension extents. The caller must not modify it.
func (d *Dense) Shape() []int64 { return d.shape }

// NDim returns the dimensionality.
func (d *Dense) NDim() int { return len(d.shape) }

// NumCells returns the total cell count.
func (d *Dense) NumCells() int64 {
	n := int64(1)
	for _, s := range d.shape {
		n *= s
	}
	return n
}

// SizeBytes returns the raw payload size in bytes.
func (d *Dense) SizeBytes() int64 { return int64(len(d.data)) }

// Bytes exposes the raw row-major buffer. The caller must not resize it.
func (d *Dense) Bytes() []byte { return d.data }

// FlatIndex converts N-dimensional coordinates to the row-major flat
// index.
func (d *Dense) FlatIndex(coords []int64) int64 {
	idx := int64(0)
	for i, c := range coords {
		idx = idx*d.shape[i] + c
	}
	return idx
}

// Coords converts a flat index back to N-dimensional coordinates.
func (d *Dense) Coords(flat int64) []int64 {
	coords := make([]int64, len(d.shape))
	for i := len(d.shape) - 1; i >= 0; i-- {
		coords[i] = flat % d.shape[i]
		flat /= d.shape[i]
	}
	return coords
}

// Bits returns the bit pattern of the cell at the given flat index.
func (d *Dense) Bits(flat int64) int64 { return GetBits(d.data, d.dtype, int(flat)) }

// SetBits stores a bit pattern at the given flat index.
func (d *Dense) SetBits(flat int64, v int64) { PutBits(d.data, d.dtype, int(flat), v) }

// BitsAt returns the bit pattern of the cell at the given coordinates.
func (d *Dense) BitsAt(coords []int64) int64 { return d.Bits(d.FlatIndex(coords)) }

// SetBitsAt stores a bit pattern at the given coordinates.
func (d *Dense) SetBitsAt(coords []int64, v int64) { d.SetBits(d.FlatIndex(coords), v) }

// Float returns the cell at flat index as a float (numeric view).
func (d *Dense) Float(flat int64) float64 { return BitsToFloat(d.dtype, d.Bits(flat)) }

// SetFloat stores a numeric value at flat index, converting to the dtype.
func (d *Dense) SetFloat(flat int64, f float64) { d.SetBits(flat, FloatToBits(d.dtype, f)) }

// Fill sets every cell to the given bit pattern.
func (d *Dense) Fill(v int64) {
	n := d.NumCells()
	for i := int64(0); i < n; i++ {
		d.SetBits(i, v)
	}
}

// Clone returns a deep copy.
func (d *Dense) Clone() *Dense {
	return &Dense{
		dtype: d.dtype,
		shape: append([]int64(nil), d.shape...),
		data:  append([]byte(nil), d.data...),
	}
}

// Equal reports whether two dense arrays have identical dtype, shape and
// contents.
func (d *Dense) Equal(o *Dense) bool {
	if o == nil || d.dtype != o.dtype || len(d.shape) != len(o.shape) {
		return false
	}
	for i := range d.shape {
		if d.shape[i] != o.shape[i] {
			return false
		}
	}
	return string(d.data) == string(o.data)
}

// Slice extracts the sub-array covered by box (which must lie within the
// array bounds) into a new dense array.
func (d *Dense) Slice(box Box) (*Dense, error) {
	if err := box.Validate(); err != nil {
		return nil, err
	}
	// the bounds are checked before the allocation the box sizes
	if box.NDim() != d.NDim() || !BoxOf(d.shape).ContainsBox(box) {
		return nil, fmt.Errorf("array: slice box %v exceeds array shape %v", box, d.shape)
	}
	out, err := NewDense(d.dtype, box.Shape())
	if err != nil {
		return nil, err
	}
	return out, out.CopyRegion(make([]int64, d.NDim()), d, box)
}

// WriteRegion copies src into d at the region starting at the given
// offset. src's shape defines the region extent.
func (d *Dense) WriteRegion(offset []int64, src *Dense) error {
	return d.CopyRegion(offset, src, BoxOf(src.shape))
}

// CopyRegion copies the cells of src covered by box (in src coordinates)
// into d, box.Lo landing at offset (in d coordinates), one copy per row
// of the last dimension. It is the one region copy: Slice and
// WriteRegion are its two shapes, and a reader assembling a reply from
// chunks copies each chunk's overlap straight into the reply with it.
func (d *Dense) CopyRegion(offset []int64, src *Dense, box Box) error {
	if src.dtype != d.dtype {
		return fmt.Errorf("array: region dtype %v differs from array dtype %v", src.dtype, d.dtype)
	}
	if box.NDim() != src.NDim() || len(offset) != d.NDim() || d.NDim() != src.NDim() {
		return fmt.Errorf("array: region box has %d dims, arrays have %d and %d", box.NDim(), src.NDim(), d.NDim())
	}
	if err := box.Validate(); err != nil {
		return err
	}
	if !BoxOf(src.shape).ContainsBox(box) {
		return fmt.Errorf("array: region box %v exceeds array shape %v", box, src.shape)
	}
	hi := make([]int64, d.NDim())
	for i := range hi {
		hi[i] = offset[i] + box.Hi[i] - box.Lo[i]
	}
	if dst := (Box{Lo: offset, Hi: hi}); !BoxOf(d.shape).ContainsBox(dst) {
		return fmt.Errorf("array: region %v exceeds array shape %v", dst, d.shape)
	}
	if box.Empty() {
		return nil
	}
	ndim := src.NDim()
	elem := int64(src.dtype.Size())
	rowLen := (box.Hi[ndim-1] - box.Lo[ndim-1]) * elem
	coords := append([]int64(nil), box.Lo...)
	dstCoords := append([]int64(nil), offset...)
	for {
		srcStart := src.FlatIndex(coords) * elem
		dstStart := d.FlatIndex(dstCoords) * elem
		copy(d.data[dstStart:dstStart+rowLen], src.data[srcStart:srcStart+rowLen])
		// advance every dim but the last, odometer style
		i := ndim - 2
		for ; i >= 0; i-- {
			coords[i]++
			dstCoords[i]++
			if coords[i] < box.Hi[i] {
				break
			}
			coords[i] = box.Lo[i]
			dstCoords[i] = offset[i]
		}
		if i < 0 {
			return nil
		}
	}
}

// Stack combines k same-shaped N-dimensional arrays into one
// (N+1)-dimensional array whose first dimension indexes the inputs. This
// implements the paper's multi-version select: "it returns an
// N+1-dimensional array that is effectively a stack of the specified
// versions" (§II-B).
func Stack(arrays []*Dense) (*Dense, error) {
	if len(arrays) == 0 {
		return nil, fmt.Errorf("array: cannot stack zero arrays")
	}
	first := arrays[0]
	for i, a := range arrays[1:] {
		if a.dtype != first.dtype {
			return nil, fmt.Errorf("array: stack input %d has dtype %v, want %v", i+1, a.dtype, first.dtype)
		}
		if len(a.shape) != len(first.shape) {
			return nil, fmt.Errorf("array: stack input %d has %d dims, want %d", i+1, a.NDim(), first.NDim())
		}
		for j := range a.shape {
			if a.shape[j] != first.shape[j] {
				return nil, fmt.Errorf("array: stack input %d shape %v differs from %v", i+1, a.shape, first.shape)
			}
		}
	}
	shape := append([]int64{int64(len(arrays))}, first.shape...)
	out, err := NewDense(first.dtype, shape)
	if err != nil {
		return nil, err
	}
	stride := int64(len(first.data))
	for i, a := range arrays {
		copy(out.data[int64(i)*stride:], a.data)
	}
	return out, nil
}
