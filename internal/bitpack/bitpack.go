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

// Writer appends fixed-width unsigned codes to a byte buffer, LSB-first
// within each byte.
type Writer struct {
	buf  []byte
	acc  uint64 // bits not yet flushed
	nacc uint   // number of valid bits in acc
}

// NewWriter returns a Writer that appends to an internal buffer.
func NewWriter() *Writer { return &Writer{} }

// Write appends the low `width` bits of u.
func (w *Writer) Write(u uint64, width int) {
	if width == 0 {
		return
	}
	if width < 64 {
		u &= (1 << uint(width)) - 1
	}
	w.acc |= u << w.nacc
	if w.nacc+uint(width) >= 64 {
		// flush the full 64-bit accumulator
		for i := 0; i < 8; i++ {
			w.buf = append(w.buf, byte(w.acc>>(8*uint(i))))
		}
		rem := w.nacc + uint(width) - 64
		if w.nacc == 0 {
			w.acc = 0
		} else {
			w.acc = u >> (64 - w.nacc)
		}
		w.nacc = rem
	} else {
		w.nacc += uint(width)
	}
}

// WriteSigned zigzag-encodes v and appends it at the given width. The
// width must be at least SignedWidth(v) for lossless roundtrip.
func (w *Writer) WriteSigned(v int64, width int) {
	w.Write(Zigzag(v), width)
}

// Bytes flushes any partial byte and returns the packed buffer. The
// Writer may not be used after calling Bytes.
func (w *Writer) Bytes() []byte {
	for w.nacc > 0 {
		w.buf = append(w.buf, byte(w.acc))
		w.acc >>= 8
		if w.nacc >= 8 {
			w.nacc -= 8
		} else {
			w.nacc = 0
		}
	}
	return w.buf
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

// byteAligned reports whether width maps each code onto whole bytes, the
// precondition for the word-at-a-time bulk paths below.
func byteAligned(width int) bool {
	return width == 8 || width == 16 || width == 32 || width == 64
}

// PackSigned packs vs at the given width (which must cover every value).
// Byte-aligned widths (8/16/32/64) store codes directly as little-endian
// words, bypassing the bit accumulator entirely.
func PackSigned(vs []int64, width int) []byte {
	if byteAligned(width) {
		buf := make([]byte, PackedLen(len(vs), width))
		step := width / 8
		for i, v := range vs {
			putAligned(buf[i*step:], Zigzag(v), width)
		}
		return buf
	}
	w := NewWriter()
	for _, v := range vs {
		w.WriteSigned(v, width)
	}
	return w.Bytes()
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

// PackUnsigned packs unsigned codes at the given width. Byte-aligned
// widths store codes directly as little-endian words.
func PackUnsigned(vs []uint64, width int) []byte {
	if byteAligned(width) {
		buf := make([]byte, PackedLen(len(vs), width))
		step := width / 8
		for i, v := range vs {
			putAligned(buf[i*step:], v, width)
		}
		return buf
	}
	w := NewWriter()
	for _, v := range vs {
		w.Write(v, width)
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

func putAligned(dst []byte, u uint64, width int) {
	switch width {
	case 8:
		dst[0] = byte(u)
	case 16:
		binary.LittleEndian.PutUint16(dst, uint16(u))
	case 32:
		binary.LittleEndian.PutUint32(dst, uint32(u))
	default:
		binary.LittleEndian.PutUint64(dst, u)
	}
}
