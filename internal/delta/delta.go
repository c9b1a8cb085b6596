// Package delta implements the paper's delta-encoding algorithms
// (§III-B.3, evaluated in Table I): a delta is the cellwise difference
// between two versions, stored with as few bits per cell as possible.
//
// Five methods are provided:
//
//   - Dense: bit-packs every difference at the minimal uniform width D.
//   - Sparse: stores only the (position, difference) pairs of cells that
//     changed.
//   - Hybrid: computes an optimal threshold and splits the difference
//     array into a D-bit dense part plus a separate sparse overlay of
//     wide outliers ("if more than a fraction F of cells can be encoded
//     using D' > D bits per cell, we create a separate matrix").
//   - BlockMatch: the MPEG-2-like matcher — 16×16 blocks, each compared
//     against every offset within a 16-cell radius, residual stored as a
//     hybrid delta.
//   - BSDiff: byte-level binary differencing over a suffix array, after
//     Percival '03.
//
// Every method decodes forward only: Apply reconstructs the target from
// the base. The store walks a chain from its materialized root toward
// the version read, so no reader subtracts a delta.
package delta

import (
	"encoding/binary"
	"fmt"
	"math"

	"arrayvers/internal/array"
)

// Method identifies a delta-encoding algorithm.
type Method uint8

// Supported methods. SparseOps is the sparse-array-to-sparse-array delta
// used for sparse versions (e.g. the ConceptNet workload).
const (
	Dense Method = iota + 1
	Sparse
	Hybrid
	BlockMatch
	BSDiff
	SparseOps
)

func (m Method) String() string {
	switch m {
	case Dense:
		return "dense"
	case Sparse:
		return "sparse"
	case Hybrid:
		return "hybrid"
	case BlockMatch:
		return "blockmatch"
	case BSDiff:
		return "bsdiff"
	case SparseOps:
		return "sparseops"
	default:
		return fmt.Sprintf("Method(%d)", uint8(m))
	}
}

// ParseMethod converts a method name to a Method.
func ParseMethod(s string) (Method, error) {
	switch s {
	case "dense":
		return Dense, nil
	case "sparse":
		return Sparse, nil
	case "hybrid":
		return Hybrid, nil
	case "blockmatch", "mpeg2":
		return BlockMatch, nil
	case "bsdiff":
		return BSDiff, nil
	case "sparseops":
		return SparseOps, nil
	default:
		return 0, fmt.Errorf("delta: unknown method %q", s)
	}
}

// MethodOf returns the method a delta blob was encoded with.
func MethodOf(blob []byte) (Method, error) {
	if len(blob) == 0 {
		return 0, fmt.Errorf("delta: empty blob")
	}
	m := Method(blob[0])
	if m < Dense || m > SparseOps {
		return 0, fmt.Errorf("delta: unknown method byte %d", blob[0])
	}
	return m, nil
}

// wrapDiff computes the wrapping difference of two cell bit patterns,
// reduced to the dtype's width and sign-extended: the representative of
// t−b (mod 2^k) with the smallest magnitude. Wrapping keeps differences
// narrow even across the dtype's overflow boundary.
func wrapDiff(dt array.DataType, t, b int64) int64 {
	raw := uint64(t) - uint64(b)
	k := uint(dt.Size() * 8)
	if k == 64 {
		return int64(raw)
	}
	return int64(raw<<(64-k)) >> (64 - k)
}

// wrapAdd inverts wrapDiff: reconstructs the target bit pattern from the
// base pattern and the difference.
func wrapAdd(dt array.DataType, b, d int64) int64 {
	return array.TruncateBits(dt, int64(uint64(b)+uint64(d)))
}

// CheckPair validates that two dense arrays can be delta'ed: "deltas can
// only be created between arrays of the same dimensionality" (§III-B.3) —
// and, chunk-identically, the same shape and dtype.
func CheckPair(target, base *array.Dense) error {
	if target.DType() != base.DType() {
		return fmt.Errorf("delta: dtype mismatch %v vs %v", target.DType(), base.DType())
	}
	if target.NDim() != base.NDim() {
		return fmt.Errorf("delta: dimensionality mismatch %d vs %d", target.NDim(), base.NDim())
	}
	for i, s := range target.Shape() {
		if base.Shape()[i] != s {
			return fmt.Errorf("delta: shape mismatch %v vs %v", target.Shape(), base.Shape())
		}
	}
	return nil
}

// Encode computes a delta blob such that Apply(blob, base) reconstructs
// target.
func Encode(m Method, target, base *array.Dense) ([]byte, error) {
	if err := CheckPair(target, base); err != nil {
		return nil, err
	}
	switch m {
	case Dense, Sparse, Hybrid:
		return encodeCellwise(m, target, base, math.MaxInt), nil
	case BlockMatch:
		return encodeBlockMatch(target, base, DefaultBlockSize, DefaultSearchRadius)
	case BSDiff:
		return encodeBSDiff(target, base), nil
	default:
		return nil, fmt.Errorf("delta: cannot Encode with method %v", m)
	}
}

// EncodeHybridUnder returns Encode(Hybrid, target, base) when that blob
// is shorter than limit bytes, and nil when it is not — deciding from
// the kernel's first pass, without encoding, whenever the blob provably
// cannot be shorter. Keeping a delta only when it beats the raw chunk
// is then one call that costs a far pair a histogram, not an encode.
func EncodeHybridUnder(target, base *array.Dense, limit int) ([]byte, error) {
	if err := CheckPair(target, base); err != nil {
		return nil, err
	}
	return encodeCellwise(Hybrid, target, base, limit), nil
}

// Alike reports whether a trial encode of target against base is worth
// running: whether at least one in eight of up to 64 evenly spaced
// 8-byte words of their cells is equal. Unrelated content (random cells,
// a fresh field) shares no word; a version and a near relative share
// most. Arrays of under 8 bytes are always alike.
func Alike(target, base *array.Dense) bool {
	tb, bb := target.Bytes(), base.Bytes()
	words := min(len(tb), len(bb)) / 8
	if words == 0 {
		return true
	}
	probes, equal := 0, 0
	for w := 0; w < words; w += max(1, words/64) {
		if binary.LittleEndian.Uint64(tb[8*w:]) == binary.LittleEndian.Uint64(bb[8*w:]) {
			equal++
		}
		probes++
	}
	return 8*equal >= probes
}

// Apply reconstructs the target array from a delta blob and its base,
// leaving the base untouched: ApplyInPlace on a private copy.
func Apply(blob []byte, base *array.Dense) (*array.Dense, error) {
	return ApplyInPlace(blob, base.Clone())
}

// header layout shared by the dense-array methods:
// [method byte][dtype byte][payload...]; shape travels with the base at
// decode time (every version of an array is chunked identically, §III-B).

func putHeader(m Method, dt array.DataType) []byte {
	return []byte{byte(m), byte(dt)}
}

func readHeader(blob []byte, want Method, base *array.Dense) error {
	if len(blob) < 2 {
		return fmt.Errorf("delta: truncated blob")
	}
	if Method(blob[0]) != want {
		return fmt.Errorf("delta: blob method %v, want %v", Method(blob[0]), want)
	}
	if array.DataType(blob[1]) != base.DType() {
		return fmt.Errorf("delta: blob dtype %v, base dtype %v", array.DataType(blob[1]), base.DType())
	}
	return nil
}

// uvarintLen is the length of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
