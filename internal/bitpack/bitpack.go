// Package bitpack implements fixed-width bit-level packing of integer
// sequences. The delta encoders store cellwise differences as dense
// collections of D-bit values (paper §III-B.3); this package provides the
// D-bit writer and reader, the zigzag transform used to map signed
// differences onto unsigned codes, and helpers to choose the minimal
// width D for a set of values.
//
// Widths from 0 to 64 bits are supported. Width 0 is meaningful: a run of
// identical versions produces an all-zero delta which occupies no payload
// bytes at all ("the system also supports bit depths of 0", §III-B.3).
package bitpack

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Zigzag maps a signed value onto an unsigned code such that values of
// small magnitude (positive or negative) receive small codes:
// 0→0, -1→1, 1→2, -2→3, ...
func Zigzag(v int64) uint64 {
	return uint64((v << 1) ^ (v >> 63))
}

// Unzigzag inverts Zigzag.
func Unzigzag(u uint64) int64 {
	return int64(u>>1) ^ -int64(u&1)
}

// Width returns the number of bits needed to represent the unsigned code
// u: 0 for 0, otherwise the position of the highest set bit.
func Width(u uint64) int {
	return bits.Len64(u)
}

// SignedWidth returns the number of bits needed to represent the signed
// value v after zigzag encoding.
func SignedWidth(v int64) int {
	return Width(Zigzag(v))
}

// MaxSignedWidth returns the minimal width D able to encode every value
// in vs (after zigzag). An empty slice needs width 0.
func MaxSignedWidth(vs []int64) int {
	w := 0
	for _, v := range vs {
		if sw := SignedWidth(v); sw > w {
			w = sw
			if w == 64 {
				break
			}
		}
	}
	return w
}

// PackedLen returns the number of bytes occupied by n values of the given
// width.
func PackedLen(n, width int) int {
	return (n*width + 7) / 8
}

// Writer is the one packer: it appends codes LSB-first within each byte
// through a 64-bit accumulator, storing a whole word per 64 bits. It
// writes into a buffer whose unwritten bytes are zero — a preallocated
// one from NewWriterInto, which PackedLen sizes exactly so no store ever
// grows it, or its own from NewWriter, extended by zeros as needed.
// Because those bytes are already zero, Zeros advances over runs of zero
// codes without storing them.
type Writer struct {
	buf  []byte
	pos  int    // bytes stored
	acc  uint64 // bits not yet stored
	nacc uint   // number of valid bits in acc, always < 64 between calls
}

// NewWriter returns a Writer that grows its own buffer.
func NewWriter() *Writer { return &Writer{} }

// NewWriterInto returns a Writer that packs into buf, which must be
// zeroed. Sized with PackedLen for the codes written, buf is filled
// exactly and never reallocated. It returns a value so a packing loop
// can keep the Writer on its stack.
func NewWriterInto(buf []byte) Writer { return Writer{buf: buf} }

// Write appends u as a `width`-bit code; u must fit in width bits. (No
// mask here keeps Write small enough to inline into the packing loops.)
func (w *Writer) Write(u uint64, width int) {
	w.acc |= u << w.nacc
	w.nacc += uint(width)
	if w.nacc >= 64 {
		w.spill(u, width)
	}
}

// spill stores the full accumulator and keeps the bits of u (the code
// just written) that did not fit in it.
func (w *Writer) spill(u uint64, width int) {
	w.putWord(w.acc)
	w.nacc -= 64
	w.acc = u >> (uint(width) - w.nacc) // 0 when nothing is left over
}

// Zeros appends nbits zero bits.
func (w *Writer) Zeros(nbits int) {
	w.nacc += uint(nbits)
	if w.nacc >= 64 {
		w.skipWords()
	}
}

// skipWords stores the full accumulator, then steps over the whole zero
// words after it without storing them: the buffer already holds zeros
// there.
func (w *Writer) skipWords() {
	w.putWord(w.acc)
	w.nacc -= 64
	skip := int(w.nacc/64) * 8
	w.reserve(skip)
	w.pos += skip
	w.nacc %= 64
	w.acc = 0
}

// WriteSigned zigzag-encodes v and appends it at the given width. The
// width must be at least SignedWidth(v).
func (w *Writer) WriteSigned(v int64, width int) {
	w.Write(Zigzag(v), width)
}

// Bytes stores any partial word and returns the packed bytes. The Writer
// may not be used after calling Bytes.
func (w *Writer) Bytes() []byte {
	tail := int(w.nacc+7) / 8
	w.reserve(tail)
	for i := 0; i < tail; i++ {
		w.buf[w.pos+i] = byte(w.acc >> (8 * uint(i)))
	}
	w.pos += tail
	return w.buf[:w.pos]
}

func (w *Writer) putWord(v uint64) {
	w.reserve(8)
	binary.LittleEndian.PutUint64(w.buf[w.pos:], v)
	w.pos += 8
}

// reserve makes room for k more bytes, extending the buffer with zeros.
func (w *Writer) reserve(k int) {
	if need := w.pos + k - len(w.buf); need > 0 {
		w.buf = append(w.buf, make([]byte, need)...)
	}
}

// Reader extracts fixed-width unsigned codes from a packed buffer.
type Reader struct {
	buf []byte
	pos uint64 // bit position
}

// NewReader returns a Reader over buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Read extracts the next `width`-bit code. It returns an error if the
// buffer is exhausted.
//
// The fast path loads a 64-bit word at the current byte and shifts the
// code out in one step; it covers every read whose bits fit in the
// loaded word (always true for byte-aligned widths up to 64, and for any
// width up to 57 at arbitrary alignment). Only reads within 8 bytes of
// the buffer end fall back to the bit-by-bit loop.
func (r *Reader) Read(width int) (uint64, error) {
	if width == 0 {
		return 0, nil
	}
	end := r.pos + uint64(width)
	if end > uint64(len(r.buf))*8 {
		return 0, fmt.Errorf("bitpack: read of %d bits at bit %d overruns %d-byte buffer", width, r.pos, len(r.buf))
	}
	byteIdx := r.pos >> 3
	bitIdx := r.pos & 7
	if int(bitIdx)+width <= 64 && byteIdx+8 <= uint64(len(r.buf)) {
		u := binary.LittleEndian.Uint64(r.buf[byteIdx:]) >> bitIdx
		if width < 64 {
			u &= (1 << uint(width)) - 1
		}
		r.pos = end
		return u, nil
	}
	var u uint64
	got := 0
	for got < width {
		byteIdx := (r.pos + uint64(got)) / 8
		bitIdx := (r.pos + uint64(got)) % 8
		avail := 8 - int(bitIdx)
		take := width - got
		if take > avail {
			take = avail
		}
		chunk := uint64(r.buf[byteIdx]>>bitIdx) & ((1 << uint(take)) - 1)
		u |= chunk << uint(got)
		got += take
	}
	r.pos = end
	return u, nil
}

// ReadSigned extracts the next `width`-bit code and zigzag-decodes it.
func (r *Reader) ReadSigned(width int) (int64, error) {
	u, err := r.Read(width)
	if err != nil {
		return 0, err
	}
	return Unzigzag(u), nil
}

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() uint64 {
	total := uint64(len(r.buf)) * 8
	if r.pos > total {
		return 0
	}
	return total - r.pos
}

// PackSigned packs vs at the given width (which must cover every value;
// a wider code keeps only its low width bits).
func PackSigned(vs []int64, width int) []byte {
	w, mask := NewWriterInto(make([]byte, PackedLen(len(vs), width))), codeMask(width)
	for _, v := range vs {
		w.Write(Zigzag(v)&mask, width)
	}
	return w.Bytes()
}

// codeMask keeps the low width bits of a code.
func codeMask(width int) uint64 {
	if width >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(width) - 1
}

// checkUnpack validates an unpack request before any allocation sized
// by n: the buffer must actually hold n width-bit codes. Width 0 is the
// exception (zero codes occupy no bytes), so its n must come from a
// trusted source — every caller here derives it from the base array's
// cell count, never from the blob being decoded.
func checkUnpack(bufLen, n, width int) error {
	if n < 0 || width < 0 || width > 64 {
		return fmt.Errorf("bitpack: bad unpack of %d values at width %d", n, width)
	}
	if width > 0 && n > (bufLen*8)/width {
		return fmt.Errorf("bitpack: unpack of %d %d-bit values overruns %d-byte buffer", n, width, bufLen)
	}
	return nil
}

// UnpackSigned extracts n signed values of the given width from buf
// with the batched kernel (see kernels.go).
func UnpackSigned(buf []byte, n, width int) ([]int64, error) {
	if err := checkUnpack(len(buf), n, width); err != nil {
		return nil, err
	}
	out := make([]int64, n)
	if err := batchedUnpackSigned(buf, n, width, out); err != nil {
		return nil, err
	}
	return out, nil
}

// PackUnsigned packs unsigned codes at the given width, keeping the low
// width bits of each.
func PackUnsigned(vs []uint64, width int) []byte {
	w, mask := NewWriterInto(make([]byte, PackedLen(len(vs), width))), codeMask(width)
	for _, v := range vs {
		w.Write(v&mask, width)
	}
	return w.Bytes()
}

// UnpackUnsigned extracts n unsigned codes of the given width from buf
// with the batched kernel (see kernels.go).
func UnpackUnsigned(buf []byte, n, width int) ([]uint64, error) {
	if err := checkUnpack(len(buf), n, width); err != nil {
		return nil, err
	}
	out := make([]uint64, n)
	if err := batchedUnsigned(buf, n, width, out); err != nil {
		return nil, err
	}
	return out, nil
}
