package bitpack

import (
	"encoding/binary"
	"testing"
)

// FuzzReader feeds the bit reader and the bulk unpackers arbitrary
// buffers, counts, and widths — including invalid widths and counts the
// buffer cannot back. They must reject bad requests with an error
// before sizing any allocation, never panic, and the bulk path must
// agree with the incremental reader on whatever decodes.
func FuzzReader(f *testing.F) {
	f.Add([]byte{0x05, 0x03, 0x00, 0xde, 0xad, 0xbe, 0xef})
	f.Add(PackSigned([]int64{-3, 900, 0, 1 << 40}, 48))
	f.Add(PackUnsigned([]uint64{1, 2, 3, 4, 5}, 3))
	f.Add([]byte{0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 || len(data) > 1<<16 {
			return
		}
		width := int(data[0]) % 70 // includes invalid widths > 64
		n := int(binary.LittleEndian.Uint16(data[1:3]))
		buf := data[3:]
		if width == 0 && n > 1<<12 {
			// width 0 occupies no input; its count must come from a
			// trusted source, so keep it small here
			n = 1 << 12
		}
		us, uerr := UnpackUnsigned(buf, n, width)
		if _, serr := UnpackSigned(buf, n, width); (serr == nil) != (uerr == nil) {
			t.Fatalf("signed/unsigned unpack disagree: %v vs %v", serr, uerr)
		}
		if uerr != nil {
			return
		}
		// the incremental reader must produce the same codes
		r := NewReader(buf)
		for i, want := range us {
			got, err := r.Read(width)
			if err != nil {
				t.Fatalf("Reader.Read failed at %d after bulk unpack succeeded: %v", i, err)
			}
			if got != want {
				t.Fatalf("code %d: reader %d != bulk %d (width %d)", i, got, want, width)
			}
		}
		// and a repack of the decoded codes must round-trip
		packed := PackUnsigned(us, width)
		if need := PackedLen(n, width); len(packed) != need {
			t.Fatalf("repack length %d, want %d", len(packed), need)
		}
		back, err := UnpackUnsigned(packed, n, width)
		if err != nil {
			t.Fatalf("repack unpack: %v", err)
		}
		for i := range back {
			if back[i] != us[i] {
				t.Fatalf("round trip mismatch at %d", i)
			}
		}
	})
}

// FuzzKernels is the differential kernel fuzzer: one arbitrary
// buffer/count/width request is decoded by the public entry points (the
// batched kernel) and by the scalar reference, which must either both
// reject it or both produce identical codes. The batched kernel is only
// correct if it is bit-identical to the reference on every input,
// including hostile ones.
func FuzzKernels(f *testing.F) {
	f.Add([]byte{0x05, 0x03, 0xde, 0xad, 0xbe, 0xef}, uint16(3), byte(7))
	f.Add(PackUnsigned([]uint64{1 << 40, 5, 0, 9}, 48), uint16(4), byte(48))
	f.Add(PackSigned([]int64{-1, 1, -2, 2, 1000}, 13), uint16(5), byte(13))
	f.Add([]byte{0xff}, uint16(8), byte(1))
	f.Add(PackUnsigned(make([]uint64, 600), 5), uint16(600), byte(5))

	f.Fuzz(func(t *testing.T, buf []byte, nRaw uint16, widthRaw byte) {
		if len(buf) > 1<<16 {
			return
		}
		width := int(widthRaw) % 70 // includes invalid widths > 64
		n := int(nRaw)
		if width == 0 && n > 1<<12 {
			n = 1 << 12
		}
		refU, refUErr := scalarUnsigned(buf, n, width)
		refS, refSErr := scalarSigned(buf, n, width)
		if (refUErr == nil) != (refSErr == nil) {
			t.Fatalf("scalar signed/unsigned disagree: %v vs %v", refSErr, refUErr)
		}

		gotU, gotUErr := UnpackUnsigned(buf, n, width)
		gotS, gotSErr := UnpackSigned(buf, n, width)
		if (gotUErr == nil) != (refUErr == nil) {
			t.Fatalf("unsigned kernels disagree on error: batched %v, scalar %v", gotUErr, refUErr)
		}
		if (gotSErr == nil) != (refSErr == nil) {
			t.Fatalf("signed kernels disagree on error: batched %v, scalar %v", gotSErr, refSErr)
		}
		if refUErr != nil {
			return
		}
		for i := range refU {
			if gotU[i] != refU[i] {
				t.Fatalf("unsigned code %d: batched %x, scalar %x (width %d n %d)", i, gotU[i], refU[i], width, n)
			}
		}
		for i := range refS {
			if gotS[i] != refS[i] {
				t.Fatalf("signed code %d: batched %d, scalar %d (width %d n %d)", i, gotS[i], refS[i], width, n)
			}
		}
	})
}
