package delta

import (
	"encoding/binary"
	"math/bits"

	"arrayvers/internal/array"
	"arrayvers/internal/bitpack"
)

// Cellwise delta methods: dense (uniform D-bit packing), sparse
// (position+difference pairs), and hybrid (D-bit dense part plus a sparse
// overlay of wide outliers). One two-pass kernel encodes all three — the
// encode-side twin of the apply kernel in inplace.go, through which all
// three decode:
//
//   - pass 1 reads target and base at the dtype's native width, one
//     64-bit word (64/k cells of k bits) at a time, skips equal words,
//     and builds only a histogram of the differences' zigzag widths;
//   - the plane width comes from that histogram alone: Dense takes the
//     widest code, Sparse has no plane, Hybrid minimizes the exact cost
//     model (widthHist.hybridWidth);
//   - pass 2 recomputes the differences and writes the blob into one
//     buffer sized from the histogram: plane codes through bitpack's
//     accumulator, which steps over runs of zero codes without storing
//     them, and overlay gaps and values as they come.
//
// No per-cell plane is ever allocated. Equivalence to the cell-accessor
// reference (scalarEncode in oracle_test.go, driven by FuzzEncode): the
// reference takes wrapDiff of the int64 bit patterns, the low k bits of
// t−b sign-extended; the low k bits of a difference depend only on the
// low k bits of its operands, so subtracting k-bit lanes of the backing
// bytes gives the same value. target and base must not change while the
// kernel runs: pass 2 writes into the space pass 1 counted.
//
// Layouts (header = method byte | dtype byte):
//
//	Dense:  header | width byte | packed plane of every cell
//	Sparse: header | overlay of every changed cell
//	Hybrid: header | width byte | packed plane (outliers as 0) | overlay
//	overlay = nnz uvarint | uvarint index gaps | varint diffs
//
// Width 0 encodes "identical arrays" and occupies no plane at all ("if
// Ai and Aj are identical, the delta data will use negligible space on
// disk", §III-B.3). Sparse stores only cells whose difference is nonzero
// ("relatively few differences will have nonzero values", §V-A). The
// hybrid threshold is chosen by exact cost minimization over all
// candidate widths, which generalizes the paper's fraction-F rule.

// widthHist counts cells by the bit width (0..64) of their difference's
// zigzag code.
type widthHist [65]int64

// varintWidthLen is the varint length of any difference whose zigzag
// code is w bits wide.
func varintWidthLen(w int) int64 { return int64(max(1, (w+6)/7)) }

// maxWidth is the widest code counted, 0 for none.
func (h *widthHist) maxWidth() int {
	for w := 64; w > 0; w-- {
		if h[w] > 0 {
			return w
		}
	}
	return 0
}

// wider returns the number of cells wider than d bits and the varint
// bytes their differences take: the overlay at plane width d.
func (h *widthHist) wider(d int) (cells, valBytes int64) {
	for w := d + 1; w <= 64; w++ {
		cells += h[w]
		valBytes += h[w] * varintWidthLen(w)
	}
	return cells, valBytes
}

// hybridWidth picks the dense-plane width minimizing the hybrid size of n
// cells: n*D bits of plane plus index and value varints for every cell
// wider than D, each index gap costed as the uvarint of the average gap.
// Ties go to the narrower plane.
func (h *widthHist) hybridWidth(n int64) int {
	maxW := h.maxWidth()
	bestW, bestCost := maxW, int64(1)<<62
	var outliers, valBytes int64 // cells wider than d
	for d := maxW; d >= 0; d-- {
		cost := (n*int64(d)+7)/8 + valBytes
		if outliers > 0 {
			cost += outliers * int64(uvarintLen(uint64(n)/uint64(outliers)))
		}
		if cost <= bestCost {
			bestW, bestCost = d, cost
		}
		outliers += h[d]
		valBytes += h[d] * varintWidthLen(d)
	}
	return bestW
}

// laneDiff is wrapDiff for the k-bit lane at bit offset shift of two
// little-endian words.
func laneDiff(tw, bw uint64, shift, k uint) int64 {
	raw := tw>>shift - bw>>shift
	return int64(raw<<(64-k)) >> (64 - k)
}

// tailWord loads the last, partial word of a byte slice, zero-padded.
func tailWord(b []byte) uint64 {
	var w [8]byte
	copy(w[:], b)
	return binary.LittleEndian.Uint64(w[:])
}

// cellEncoder is the kernel's state across its two passes.
type cellEncoder struct {
	k    uint      // lane width in bits
	hist widthHist // of the cells of differing words only until pass 1 ends

	// pass 2
	width              int // plane width; wider codes go to the overlay
	plane              bitpack.Writer
	out                []byte
	gapPos, valPos     int   // next overlay index gap and value
	planeNext, prevIdx int64 // first cell not yet in the plane; last overlay index
}

// walk visits every word pair that differs, with the index of its first
// cell and its number of cells: count in pass 1, emit in pass 2.
func (e *cellEncoder) walk(tb, bb []byte, emit bool) {
	bb = bb[:len(tb)]
	lanes := 64 / e.k
	off, cell := 0, int64(0)
	for ; off+8 <= len(tb); off, cell = off+8, cell+int64(lanes) {
		tw, bw := binary.LittleEndian.Uint64(tb[off:]), binary.LittleEndian.Uint64(bb[off:])
		if tw == bw {
			continue
		}
		if emit {
			e.emit(tw, bw, cell, lanes)
		} else {
			e.count(tw, bw, lanes)
		}
	}
	if off < len(tb) {
		tw, bw, cells := tailWord(tb[off:]), tailWord(bb[off:]), uint(len(tb)-off)*8/e.k
		if emit {
			e.emit(tw, bw, cell, cells)
		} else {
			e.count(tw, bw, cells)
		}
	}
}

// count adds every cell of a differing word to the histogram, zeros
// included: a branch per cell would mispredict on scattered changes.
func (e *cellEncoder) count(tw, bw uint64, cells uint) {
	for s := uint(0); s < cells*e.k; s += e.k {
		e.hist[bits.Len64(bitpack.Zigzag(laneDiff(tw, bw, s, e.k)))]++
	}
}

// emit puts each changed cell in the plane if its code fits the width,
// else in the overlay. Unchanged cells and outliers are zero plane codes,
// written as one run when the next nonzero code is.
func (e *cellEncoder) emit(tw, bw uint64, cell int64, cells uint) {
	for s := uint(0); s < cells*e.k; s, cell = s+e.k, cell+1 {
		d := laneDiff(tw, bw, s, e.k)
		if d == 0 {
			continue
		}
		if zz := bitpack.Zigzag(d); bits.Len64(zz) <= e.width {
			if gap := cell - e.planeNext; gap > 0 {
				e.plane.Zeros(int(gap) * e.width)
			}
			e.plane.Write(zz, e.width)
			e.planeNext = cell + 1
			continue
		}
		e.gapPos += binary.PutUvarint(e.out[e.gapPos:], uint64(cell-e.prevIdx))
		e.valPos += binary.PutVarint(e.out[e.valPos:], d)
		e.prevIdx = cell
	}
}

// encodeCellwise is the kernel: it encodes target against base with
// cellwise method m (Dense, Sparse or Hybrid).
func encodeCellwise(m Method, target, base *array.Dense) []byte {
	dt, n := target.DType(), target.NumCells()
	tb, bb := target.Bytes(), base.Bytes()
	e := &cellEncoder{k: uint(dt.Size() * 8)}
	e.walk(tb, bb, false)
	counted, _ := e.hist.wider(-1)
	e.hist[0] += n - counted // the cells of equal words

	hdr, planeLen := 2, 0
	switch m {
	case Dense:
		e.width = e.hist.maxWidth()
	case Hybrid:
		e.width = e.hist.hybridWidth(n)
	}
	if m != Sparse {
		hdr, planeLen = 3, bitpack.PackedLen(int(n), e.width)
	}
	// the buffer: header and plane exactly; the overlay exactly but for
	// its index gaps, each at most a uvarint of n
	pre := hdr + planeLen
	size := pre
	var nnz, valBytes int64
	if m != Dense {
		nnz, valBytes = e.hist.wider(e.width)
		size += uvarintLen(uint64(nnz)) + int(nnz)*uvarintLen(uint64(n)) + int(valBytes)
	}
	e.out = make([]byte, size)
	e.out[0], e.out[1] = byte(m), byte(dt)
	if m != Sparse {
		e.out[2] = byte(e.width)
	}
	e.plane = bitpack.NewWriterInto(e.out[hdr:pre:pre])
	e.gapPos = pre
	if m != Dense {
		e.gapPos += binary.PutUvarint(e.out[pre:], uint64(nnz))
	}
	valStart := size - int(valBytes)
	e.valPos = valStart

	e.walk(tb, bb, true)
	e.plane.Bytes() // stores the plane's last partial word
	// the values went to the end of the buffer: close the slack the gap
	// bound left between them and the index gaps (none for Dense)
	copy(e.out[e.gapPos:], e.out[valStart:])
	return e.out[:e.gapPos+int(valBytes)]
}
