package bitpack

import (
	"encoding/binary"
	"fmt"
)

// The unpack kernel. The Reader's fast path still decodes one value per
// call — a call, a position update, and a bounds check per code. The
// batched kernel amortizes all of that: it decodes straight into a
// caller slice with unrolled 64-bit window loads, one bounds check per
// unroll block, and handles the buffer tail with a single anchored load
// instead of falling back to bit-by-bit assembly. It is the only bulk
// decoder; the scalar reference it must stay bit-identical to lives in
// oracle_test.go, where kernels_test.go and FuzzKernels drive the two
// against each other.

// CheckUnpack is the exported form of the unpack validation: buf of
// bufLen bytes must hold n width-bit codes. The in-place delta kernel
// validates with it before touching a buffer.
func CheckUnpack(bufLen, n, width int) error { return checkUnpack(bufLen, n, width) }

// UnpackUnsignedInto extracts n unsigned width-bit codes from buf into
// out (which must hold at least n values).
func UnpackUnsignedInto(buf []byte, n, width int, out []uint64) error {
	if err := checkUnpack(len(buf), n, width); err != nil {
		return err
	}
	if len(out) < n {
		return fmt.Errorf("bitpack: output holds %d values, need %d", len(out), n)
	}
	return batchedUnsigned(buf, n, width, out[:n])
}

// UnpackSignedInto is UnpackUnsignedInto with zigzag decoding.
func UnpackSignedInto(buf []byte, n, width int, out []int64) error {
	if err := checkUnpack(len(buf), n, width); err != nil {
		return err
	}
	if len(out) < n {
		return fmt.Errorf("bitpack: output holds %d values, need %d", len(out), n)
	}
	return batchedUnpackSigned(buf, n, width, out[:n])
}

// SignedAt returns the i-th signed width-bit code of a packed buffer,
// which must hold it (CheckUnpack for any count above i). It loads the
// one or two little-endian words the code spans: the in-place delta
// kernel reads the plane code under each overlay cell with it, without
// unpacking the plane.
func SignedAt(buf []byte, i, width int) int64 {
	if width == 0 {
		return 0
	}
	bit := uint64(i) * uint64(width)
	at, shift := bit>>3, bit&7
	var win [16]byte
	copy(win[:], buf[at:]) // a code spans at most 71 bits from its byte
	u := binary.LittleEndian.Uint64(win[:]) >> shift
	if shift > 0 {
		u |= binary.LittleEndian.Uint64(win[8:]) << (64 - shift)
	}
	return Unzigzag(u & codeMask(width))
}

// signedBlockVals is the signed kernel's decode-block size. 512 values
// at any width occupy exactly 64*width bytes, so every block starts
// byte-aligned and the unsigned kernel can run on a plain sub-slice.
const signedBlockVals = 512

func batchedUnpackSigned(buf []byte, n, width int, out []int64) error {
	if n == 0 {
		return nil
	}
	if width == 0 {
		for i := range out[:n] {
			out[i] = 0
		}
		return nil
	}
	if width <= 57 && len(buf) >= 8 {
		// fused path: one anchored window load and an inline unzigzag per
		// code, no intermediate block buffer. Same window/tail structure
		// (and the same in-bounds proof) as batchedUnsigned.
		mask := uint64(1)<<uint(width) - 1
		uw := uint64(width)
		lim := (8*(len(buf)-8)+7)/width + 1
		if lim > n {
			lim = n
		}
		i := 0
		p := uint64(0)
		for ; i+4 <= lim; i += 4 {
			u0 := binary.LittleEndian.Uint64(buf[p>>3:]) >> (p & 7) & mask
			p += uw
			u1 := binary.LittleEndian.Uint64(buf[p>>3:]) >> (p & 7) & mask
			p += uw
			u2 := binary.LittleEndian.Uint64(buf[p>>3:]) >> (p & 7) & mask
			p += uw
			u3 := binary.LittleEndian.Uint64(buf[p>>3:]) >> (p & 7) & mask
			p += uw
			dst := out[i : i+4 : i+4]
			dst[0] = Unzigzag(u0)
			dst[1] = Unzigzag(u1)
			dst[2] = Unzigzag(u2)
			dst[3] = Unzigzag(u3)
		}
		for ; i < lim; i++ {
			out[i] = Unzigzag(binary.LittleEndian.Uint64(buf[p>>3:]) >> (p & 7) & mask)
			p += uw
		}
		if i < n {
			base := uint64(len(buf)-8) * 8
			w := binary.LittleEndian.Uint64(buf[len(buf)-8:])
			for ; i < n; i++ {
				out[i] = Unzigzag(w >> (p - base) & mask)
				p += uw
			}
		}
		return nil
	}
	// wide codes (58..64 bits) and buffers too small for a window load:
	// unpack blockwise through the unsigned kernel, then unzigzag. 512
	// values at any width occupy exactly 64*width bytes, so every block
	// starts byte-aligned and runs on a plain sub-slice.
	var block [signedBlockVals]uint64
	for start := 0; start < n; start += signedBlockVals {
		m := n - start
		if m > signedBlockVals {
			m = signedBlockVals
		}
		off := start * width / 8
		if err := batchedUnsigned(buf[off:], m, width, block[:m]); err != nil {
			return err
		}
		dst := out[start : start+m]
		for j, u := range block[:m] {
			dst[j] = Unzigzag(u)
		}
	}
	return nil
}

// batchedUnsigned decodes n width-bit codes from buf into out. Callers
// have validated the request with checkUnpack (directly or via a
// byte-aligned sub-slice of a validated request).
func batchedUnsigned(buf []byte, n, width int, out []uint64) error {
	if n == 0 {
		return nil
	}
	switch width {
	case 0:
		for i := range out[:n] {
			out[i] = 0
		}
		return nil
	case 8:
		i := 0
		for ; i+8 <= n; i += 8 {
			src := buf[i : i+8 : i+8]
			dst := out[i : i+8 : i+8]
			dst[0] = uint64(src[0])
			dst[1] = uint64(src[1])
			dst[2] = uint64(src[2])
			dst[3] = uint64(src[3])
			dst[4] = uint64(src[4])
			dst[5] = uint64(src[5])
			dst[6] = uint64(src[6])
			dst[7] = uint64(src[7])
		}
		for ; i < n; i++ {
			out[i] = uint64(buf[i])
		}
		return nil
	case 16:
		i := 0
		for ; i+4 <= n; i += 4 {
			src := buf[2*i : 2*i+8 : 2*i+8]
			dst := out[i : i+4 : i+4]
			dst[0] = uint64(binary.LittleEndian.Uint16(src[0:]))
			dst[1] = uint64(binary.LittleEndian.Uint16(src[2:]))
			dst[2] = uint64(binary.LittleEndian.Uint16(src[4:]))
			dst[3] = uint64(binary.LittleEndian.Uint16(src[6:]))
		}
		for ; i < n; i++ {
			out[i] = uint64(binary.LittleEndian.Uint16(buf[2*i:]))
		}
		return nil
	case 32:
		i := 0
		for ; i+4 <= n; i += 4 {
			src := buf[4*i : 4*i+16 : 4*i+16]
			dst := out[i : i+4 : i+4]
			dst[0] = uint64(binary.LittleEndian.Uint32(src[0:]))
			dst[1] = uint64(binary.LittleEndian.Uint32(src[4:]))
			dst[2] = uint64(binary.LittleEndian.Uint32(src[8:]))
			dst[3] = uint64(binary.LittleEndian.Uint32(src[12:]))
		}
		for ; i < n; i++ {
			out[i] = uint64(binary.LittleEndian.Uint32(buf[4*i:]))
		}
		return nil
	case 64:
		for i := 0; i < n; i++ {
			out[i] = binary.LittleEndian.Uint64(buf[8*i:])
		}
		return nil
	}
	if width > 57 {
		// 58..63 bits at arbitrary alignment can straddle a 64-bit
		// window; these widths are vanishingly rare in delta planes
		// (they imply near-full-width diffs), so the Reader serves them
		return readInto(NewReader(buf), width, out[:n])
	}
	// general widths 1..57: each code fits one 64-bit window load at
	// any alignment. The main loop covers every value whose window load
	// stays inside buf; the remaining values all live inside the final
	// 8 bytes (proof: i past the main loop means i*width/8 > len-8, so
	// the code's bits start at or after bit (len-8)*8 and end at or
	// before bit len*8 by checkUnpack), so one load anchored at len-8
	// finishes the tail with no bit-by-bit fallback.
	mask := uint64(1)<<uint(width) - 1
	uw := uint64(width)
	lim := 0
	if len(buf) >= 8 {
		lim = (8*(len(buf)-8) + 7) / width
		lim++
		if lim > n {
			lim = n
		}
	}
	i := 0
	p := uint64(0)
	for ; i+4 <= lim; i += 4 {
		out[i] = binary.LittleEndian.Uint64(buf[p>>3:]) >> (p & 7) & mask
		p += uw
		out[i+1] = binary.LittleEndian.Uint64(buf[p>>3:]) >> (p & 7) & mask
		p += uw
		out[i+2] = binary.LittleEndian.Uint64(buf[p>>3:]) >> (p & 7) & mask
		p += uw
		out[i+3] = binary.LittleEndian.Uint64(buf[p>>3:]) >> (p & 7) & mask
		p += uw
	}
	for ; i < lim; i++ {
		out[i] = binary.LittleEndian.Uint64(buf[p>>3:]) >> (p & 7) & mask
		p += uw
	}
	if i < n {
		if len(buf) < 8 {
			// buffer too small for any window load; bit-by-bit. Inline
			// rather than through readInto: that call here changed the
			// register allocation of the window loop above, adding
			// stack spills to it
			r := &Reader{buf: buf, pos: p}
			for ; i < n; i++ {
				u, err := r.Read(width)
				if err != nil {
					return err
				}
				out[i] = u
			}
			return nil
		}
		base := uint64(len(buf)-8) * 8
		w := binary.LittleEndian.Uint64(buf[len(buf)-8:])
		for ; i < n; i++ {
			out[i] = w >> (p - base) & mask
			p += uw
		}
	}
	return nil
}

// readInto decodes len(out) width-bit codes from r one at a time: the
// path for 58..63-bit codes, which a 64-bit window load cannot serve at
// every alignment.
func readInto(r *Reader, width int, out []uint64) error {
	for i := range out {
		u, err := r.Read(width)
		if err != nil {
			return err
		}
		out[i] = u
	}
	return nil
}
