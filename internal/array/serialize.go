package array

import (
	"encoding/binary"
	"fmt"
)

// Binary serialization of arrays. Dense arrays are written as their raw
// row-major payload with a small header (the paper stores dense versions
// "contiguously without any prefix or header"; we keep a 1-line header so
// blobs are self-describing, and subtract it nowhere since it is O(1)).
// Sparse arrays are written as delta-varint indices plus per-dtype values.

const (
	magicDense  = 0xA17D
	magicSparse = 0xA175
)

// AppendDenseHeader appends the dense blob header — magic, dtype, ndim,
// shape varints — without the cell bytes; header + d.Bytes() is exactly
// a MarshalDense blob, so a writer can send the cells from d's own buffer.
func AppendDenseHeader(buf []byte, d *Dense) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, magicDense)
	buf = append(buf, byte(d.dtype), byte(len(d.shape)))
	for _, s := range d.shape {
		buf = binary.AppendVarint(buf, s)
	}
	return buf
}

// MarshalDense serializes a dense array.
func MarshalDense(d *Dense) []byte {
	buf := AppendDenseHeader(make([]byte, 0, 16+len(d.data)), d)
	return append(buf, d.data...)
}

// UnmarshalDense parses a blob produced by MarshalDense. The result
// aliases blob: its cells are blob's tail, not a copy, so the caller
// hands blob over and must neither reuse nor modify it afterwards.
func UnmarshalDense(blob []byte) (*Dense, error) {
	if len(blob) < 4 || binary.LittleEndian.Uint16(blob) != magicDense {
		return nil, fmt.Errorf("array: not a dense array blob")
	}
	dtype := DataType(blob[2])
	ndim := int(blob[3])
	if !dtype.Valid() {
		return nil, fmt.Errorf("array: blob has invalid dtype %d", dtype)
	}
	pos := 4
	shape := make([]int64, ndim)
	for i := 0; i < ndim; i++ {
		v, n := binary.Varint(blob[pos:])
		if n <= 0 {
			return nil, fmt.Errorf("array: truncated dense blob header")
		}
		shape[i] = v
		pos += n
	}
	return DenseFromBytes(dtype, shape, blob[pos:len(blob):len(blob)])
}

// MarshalSparse serializes a sparse array: header, fill, nnz, then
// delta-varint indices followed by raw values.
func MarshalSparse(s *Sparse) []byte {
	buf := make([]byte, 0, 16+len(s.idx)*(4+s.dtype.Size()))
	buf = binary.LittleEndian.AppendUint16(buf, magicSparse)
	buf = append(buf, byte(s.dtype), byte(len(s.shape)))
	for _, d := range s.shape {
		buf = binary.AppendVarint(buf, d)
	}
	buf = binary.AppendVarint(buf, s.fill)
	buf = binary.AppendUvarint(buf, uint64(len(s.idx)))
	prev := int64(0)
	for _, ix := range s.idx {
		buf = binary.AppendUvarint(buf, uint64(ix-prev))
		prev = ix
	}
	vals := make([]byte, len(s.vals)*s.dtype.Size())
	for k, v := range s.vals {
		PutBits(vals, s.dtype, k, v)
	}
	return append(buf, vals...)
}

// UnmarshalSparse parses a blob produced by MarshalSparse.
func UnmarshalSparse(blob []byte) (*Sparse, error) {
	if len(blob) < 4 || binary.LittleEndian.Uint16(blob) != magicSparse {
		return nil, fmt.Errorf("array: not a sparse array blob")
	}
	dtype := DataType(blob[2])
	ndim := int(blob[3])
	if !dtype.Valid() {
		return nil, fmt.Errorf("array: blob has invalid dtype %d", dtype)
	}
	pos := 4
	shape := make([]int64, ndim)
	for i := 0; i < ndim; i++ {
		v, n := binary.Varint(blob[pos:])
		if n <= 0 {
			return nil, fmt.Errorf("array: truncated sparse blob header")
		}
		shape[i] = v
		pos += n
	}
	fill, n := binary.Varint(blob[pos:])
	if n <= 0 {
		return nil, fmt.Errorf("array: truncated sparse blob fill")
	}
	pos += n
	nnz, n := binary.Uvarint(blob[pos:])
	if n <= 0 {
		return nil, fmt.Errorf("array: truncated sparse blob count")
	}
	pos += n
	s, err := NewSparse(dtype, shape, fill)
	if err != nil {
		return nil, err
	}
	// every index gap is at least one byte and every value dtype.Size()
	// bytes, so a count the remaining input cannot back is hostile —
	// reject it before sizing any allocation by it
	if nnz > uint64(len(blob)-pos)/uint64(1+dtype.Size()) {
		return nil, fmt.Errorf("array: sparse blob claims %d pairs in %d bytes", nnz, len(blob)-pos)
	}
	total := s.NumCells()
	s.idx = make([]int64, nnz)
	prev := int64(-1)
	for k := uint64(0); k < nnz; k++ {
		d, n := binary.Uvarint(blob[pos:])
		if n <= 0 {
			return nil, fmt.Errorf("array: truncated sparse blob index %d", k)
		}
		gap := int64(d)
		if k == 0 {
			gap++ // first index is stored as-is; prev starts at -1
		}
		if gap <= 0 || prev > total-1-gap {
			return nil, fmt.Errorf("array: sparse blob index %d out of range", k)
		}
		prev += gap
		s.idx[k] = prev
		pos += n
	}
	want := int(nnz) * dtype.Size()
	if len(blob)-pos != want {
		return nil, fmt.Errorf("array: sparse blob has %d value bytes, want %d", len(blob)-pos, want)
	}
	s.vals = make([]int64, nnz)
	for k := range s.vals {
		s.vals[k] = GetBits(blob[pos:], dtype, k)
	}
	return s, nil
}

// Marshal serializes either representation, choosing whichever form the
// array already uses.
func Marshal(a any) ([]byte, error) {
	switch v := a.(type) {
	case *Dense:
		return MarshalDense(v), nil
	case *Sparse:
		return MarshalSparse(v), nil
	default:
		return nil, fmt.Errorf("array: cannot marshal %T", a)
	}
}

// Unmarshal parses a blob produced by Marshal and returns either *Dense
// or *Sparse. A *Dense aliases blob, as UnmarshalDense's does.
func Unmarshal(blob []byte) (any, error) {
	if len(blob) < 2 {
		return nil, fmt.Errorf("array: blob too short")
	}
	switch binary.LittleEndian.Uint16(blob) {
	case magicDense:
		return UnmarshalDense(blob)
	case magicSparse:
		return UnmarshalSparse(blob)
	default:
		return nil, fmt.Errorf("array: unknown blob magic %#x", binary.LittleEndian.Uint16(blob))
	}
}
