package delta

import (
	"bytes"
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
//     64-bit word (64/k cells of k bits) at a time, skips equal words
//     (and equal runs of equalRun bytes at once), and builds only a
//     histogram of the differences' zigzag widths, in one loop per lane
//     width;
//   - the plane width comes from that histogram alone: Dense takes the
//     widest code, Sparse has no plane, Hybrid minimizes the exact cost
//     model (widthHist.hybridWidth);
//   - pass 2 recomputes the differences and writes the blob into one
//     buffer sized from the histogram: plane codes through bitpack's
//     accumulator, which steps over runs of zero codes without storing
//     them, and overlay gaps and values as they come.
//
// No per-cell plane is ever allocated. A caller that keeps a blob only
// when it is smaller than some limit — the store's delta-or-materialize
// choice (§III-B.3) — passes the limit in: when pass 1 proves the blob
// would not be smaller, the kernel stops there and allocates nothing
// (EncodeHybridUnder). Equivalence to the cell-accessor
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
	hist widthHist // pass 1's, of every cell

	// pass 2
	width              int // plane width; wider codes go to the overlay
	plane              bitpack.Writer
	out                []byte
	gapPos, valPos     int   // next overlay index gap and value
	planeNext, prevIdx int64 // first cell not yet in the plane; last overlay index
}

// equalRun is how many bytes both passes compare at once, through the
// runtime's vectorized bytes.Equal, before they look at single words:
// a near pair's unchanged runs cost a fraction of a word-by-word walk.
const equalRun = 128

// walk visits every word pair that differs, with the index of its first
// cell and its number of cells, and emits its cells: pass 2.
func (e *cellEncoder) walk(tb, bb []byte) {
	bb = bb[:len(tb)]
	lanes := 64 / e.k
	whole := len(tb) &^ 7
	for run := 0; run < whole; run += equalRun {
		end := min(run+equalRun, whole)
		if bytes.Equal(tb[run:end], bb[run:end]) {
			continue
		}
		for off := run; off < end; off += 8 {
			tw, bw := binary.LittleEndian.Uint64(tb[off:]), binary.LittleEndian.Uint64(bb[off:])
			if tw != bw {
				e.emit(tw, bw, int64(off)*8/int64(e.k), lanes)
			}
		}
	}
	if whole < len(tb) {
		e.emit(tailWord(tb[whole:]), tailWord(bb[whole:]), int64(whole)*8/int64(e.k), uint(len(tb)-whole)*8/e.k)
	}
}

// Pass 1 counts every cell of a differing word, zeros included: a branch
// per cell would mispredict on scattered changes. The lane width is a
// constant in each loop, and neighbouring lanes (for 8-byte cells,
// neighbouring words) count into two histograms, so two cells of one
// width — most often 0, the unchanged neighbours of a changed cell — do
// not increment one counter back to back.

func width8(tw, bw uint64) int {
	d := int8(uint8(tw) - uint8(bw))
	return bits.Len8(uint8(d<<1 ^ d>>7))
}

func width16(tw, bw uint64) int {
	d := int16(uint16(tw) - uint16(bw))
	return bits.Len16(uint16(d<<1 ^ d>>15))
}

func width32(tw, bw uint64) int {
	d := int32(uint32(tw) - uint32(bw))
	return bits.Len32(uint32(d<<1 ^ d>>31))
}

// countPass is pass 1 over the backing bytes of target and base, whose
// cells are k bits wide: the width histogram of every cell of every
// differing word. Equal words are skipped; their cells are the caller's
// to add at width 0.
func countPass(tb, bb []byte, k uint) widthHist {
	var h [2]widthHist
	bb = bb[:len(tb)]
	whole := len(tb) &^ 7
	for run := 0; run < whole; run += equalRun {
		end := min(run+equalRun, whole)
		if bytes.Equal(tb[run:end], bb[run:end]) {
			continue
		}
		switch k {
		case 8:
			count8(tb[run:end], bb[run:end], &h)
		case 16:
			count16(tb[run:end], bb[run:end], &h)
		case 32:
			count32(tb[run:end], bb[run:end], &h)
		default:
			count64(tb[run:end], bb[run:end], &h)
		}
	}
	if whole < len(tb) {
		tw, bw := tailWord(tb[whole:]), tailWord(bb[whole:])
		for s := uint(0); s < uint(len(tb)-whole)*8; s += k {
			h[0][bits.Len64(bitpack.Zigzag(laneDiff(tw, bw, s, k)))]++
		}
	}
	for w := range h[0] {
		h[0][w] += h[1][w]
	}
	return h[0]
}

// The count loops take whole words: len(tb) == len(bb), a multiple of 8.

func count8(tb, bb []byte, h *[2]widthHist) {
	for off := 0; off+8 <= len(tb); off += 8 {
		tw, bw := binary.LittleEndian.Uint64(tb[off:]), binary.LittleEndian.Uint64(bb[off:])
		if tw == bw {
			continue
		}
		h[0][width8(tw, bw)]++
		h[1][width8(tw>>8, bw>>8)]++
		h[0][width8(tw>>16, bw>>16)]++
		h[1][width8(tw>>24, bw>>24)]++
		h[0][width8(tw>>32, bw>>32)]++
		h[1][width8(tw>>40, bw>>40)]++
		h[0][width8(tw>>48, bw>>48)]++
		h[1][width8(tw>>56, bw>>56)]++
	}
}

func count16(tb, bb []byte, h *[2]widthHist) {
	for off := 0; off+8 <= len(tb); off += 8 {
		tw, bw := binary.LittleEndian.Uint64(tb[off:]), binary.LittleEndian.Uint64(bb[off:])
		if tw == bw {
			continue
		}
		h[0][width16(tw, bw)]++
		h[1][width16(tw>>16, bw>>16)]++
		h[0][width16(tw>>32, bw>>32)]++
		h[1][width16(tw>>48, bw>>48)]++
	}
}

func count32(tb, bb []byte, h *[2]widthHist) {
	for off := 0; off+8 <= len(tb); off += 8 {
		tw, bw := binary.LittleEndian.Uint64(tb[off:]), binary.LittleEndian.Uint64(bb[off:])
		if tw == bw {
			continue
		}
		h[0][width32(tw, bw)]++
		h[1][width32(tw>>32, bw>>32)]++
	}
}

func count64(tb, bb []byte, h *[2]widthHist) {
	for off := 0; off+8 <= len(tb); off += 8 {
		tw, bw := binary.LittleEndian.Uint64(tb[off:]), binary.LittleEndian.Uint64(bb[off:])
		if tw == bw {
			continue
		}
		h[off>>3&1][bits.Len64(bitpack.Zigzag(int64(tw-bw)))]++
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
// cellwise method m (Dense, Sparse or Hybrid), or returns nil when the
// blob would take limit bytes or more. Pass 1's histogram bounds the
// blob from below — the plane and the overlay exactly, each index gap at
// its least, one byte — so a blob that cannot fit is refused before
// anything is allocated or pass 2 runs; one that may fit is encoded and
// measured. The blob is the same whatever the limit.
func encodeCellwise(m Method, target, base *array.Dense, limit int) []byte {
	dt, n := target.DType(), target.NumCells()
	tb, bb := target.Bytes(), base.Bytes()
	e := cellEncoder{k: uint(dt.Size() * 8)}
	e.hist = countPass(tb, bb, e.k)
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
	size, least := pre, pre
	var nnz, valBytes int64
	if m != Dense {
		nnz, valBytes = e.hist.wider(e.width)
		overlay := uvarintLen(uint64(nnz)) + int(valBytes)
		size += overlay + int(nnz)*uvarintLen(uint64(n))
		least += overlay + int(nnz)
	}
	if least >= limit {
		return nil
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

	e.walk(tb, bb)
	e.plane.Bytes() // stores the plane's last partial word
	// the values went to the end of the buffer: close the slack the gap
	// bound left between them and the index gaps (none for Dense)
	copy(e.out[e.gapPos:], e.out[valStart:])
	if blob := e.out[:e.gapPos+int(valBytes)]; len(blob) < limit {
		return blob
	}
	return nil
}
