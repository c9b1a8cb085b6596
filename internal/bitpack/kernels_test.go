package bitpack

import (
	"math"
	"math/rand"
	"testing"
)

// Differential harness for the unpack kernel: every batched path
// (unrolled aligned widths, windowed general widths, the anchored tail
// load, the signed 512-value block loop) is driven against the scalar
// reference (oracle_test.go) and must be bit-identical on every input.

// kernelLengths covers empty, tiny, the unroll-block edges (multiples
// of 4 and 8 plus/minus one), the signed kernel's 512-value block
// edges, and lengths whose final codes land in the anchored tail
// window.
var kernelLengths = []int{
	0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17,
	63, 64, 65, 100, 255, 256, 257, 511, 512, 513, 1000, 1024, 1027,
}

func maskFor(width int) uint64 {
	if width >= 64 {
		return math.MaxUint64
	}
	return uint64(1)<<uint(width) - 1
}

// withPad returns buf extended by pad random bytes; decoding must be
// unaffected by whatever follows the packed codes (window loads may
// read the padding but must mask it away).
func withPad(rng *rand.Rand, buf []byte, pad int) []byte {
	out := make([]byte, len(buf)+pad)
	copy(out, buf)
	rng.Read(out[len(buf):])
	return out
}

func TestKernelDifferentialUnsigned(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for width := 0; width <= 64; width++ {
		for _, n := range kernelLengths {
			vals := make([]uint64, n)
			for i := range vals {
				vals[i] = rng.Uint64() & maskFor(width)
			}
			buf := PackUnsigned(vals, width)
			for _, pad := range []int{0, 1, 8, 13} {
				padded := withPad(rng, buf, pad)
				scalar := make([]uint64, n)
				batched := make([]uint64, n)
				if err := scalarUnpackUnsigned(padded, n, width, scalar); err != nil {
					t.Fatalf("width %d n %d pad %d: scalar: %v", width, n, pad, err)
				}
				if err := batchedUnsigned(padded, n, width, batched); err != nil {
					t.Fatalf("width %d n %d pad %d: batched: %v", width, n, pad, err)
				}
				for i := range vals {
					if scalar[i] != vals[i] {
						t.Fatalf("width %d n %d pad %d idx %d: scalar %d, packed %d", width, n, pad, i, scalar[i], vals[i])
					}
					if batched[i] != scalar[i] {
						t.Fatalf("width %d n %d pad %d idx %d: batched %d, scalar %d", width, n, pad, i, batched[i], scalar[i])
					}
				}
			}
		}
	}
}

func TestKernelDifferentialSigned(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for width := 0; width <= 64; width++ {
		for _, n := range kernelLengths {
			vals := make([]int64, n)
			for i := range vals {
				vals[i] = Unzigzag(rng.Uint64() & maskFor(width))
			}
			buf := PackSigned(vals, width)
			for _, pad := range []int{0, 1, 13} {
				padded := withPad(rng, buf, pad)
				scalar := make([]int64, n)
				batched := make([]int64, n)
				if err := scalarUnpackSigned(padded, n, width, scalar); err != nil {
					t.Fatalf("width %d n %d pad %d: scalar: %v", width, n, pad, err)
				}
				if err := batchedUnpackSigned(padded, n, width, batched); err != nil {
					t.Fatalf("width %d n %d pad %d: batched: %v", width, n, pad, err)
				}
				for i := range vals {
					if scalar[i] != vals[i] {
						t.Fatalf("width %d n %d pad %d idx %d: scalar %d, packed %d", width, n, pad, i, scalar[i], vals[i])
					}
					if batched[i] != scalar[i] {
						t.Fatalf("width %d n %d pad %d idx %d: batched %d, scalar %d", width, n, pad, i, batched[i], scalar[i])
					}
					if at := SignedAt(padded, i, width); at != scalar[i] {
						t.Fatalf("width %d n %d pad %d idx %d: SignedAt %d, scalar %d", width, n, pad, i, at, scalar[i])
					}
				}
			}
		}
	}
}

// TestKernelErrorParity truncates otherwise-valid buffers by one byte;
// the public entry points and the scalar reference must all reject the
// request.
func TestKernelErrorParity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for width := 1; width <= 64; width++ {
		for _, n := range []int{1, 5, 64, 513} {
			buf := make([]byte, PackedLen(n, width))
			rng.Read(buf)
			short := buf[:len(buf)-1]
			if _, err := scalarUnsigned(short, n, width); err == nil {
				t.Fatalf("width %d n %d: scalar unsigned unpack of short buffer succeeded", width, n)
			}
			if _, err := scalarSigned(short, n, width); err == nil {
				t.Fatalf("width %d n %d: scalar signed unpack of short buffer succeeded", width, n)
			}
			if err := UnpackUnsignedInto(short, n, width, make([]uint64, n)); err == nil {
				t.Fatalf("width %d n %d: unsigned unpack of short buffer succeeded", width, n)
			}
			if err := UnpackSignedInto(short, n, width, make([]int64, n)); err == nil {
				t.Fatalf("width %d n %d: signed unpack of short buffer succeeded", width, n)
			}
			if _, err := UnpackUnsigned(short, n, width); err == nil {
				t.Fatalf("width %d n %d: UnpackUnsigned of short buffer succeeded", width, n)
			}
			if _, err := UnpackSigned(short, n, width); err == nil {
				t.Fatalf("width %d n %d: UnpackSigned of short buffer succeeded", width, n)
			}
		}
	}
}

func TestUnpackIntoShortOutput(t *testing.T) {
	buf := PackUnsigned([]uint64{1, 2, 3}, 8)
	if err := UnpackUnsignedInto(buf, 3, 8, make([]uint64, 2)); err == nil {
		t.Fatal("unsigned unpack into short output succeeded")
	}
	if err := UnpackSignedInto(buf, 3, 8, make([]int64, 2)); err == nil {
		t.Fatal("signed unpack into short output succeeded")
	}
}

func benchmarkKernelUnpack(b *testing.B, unpack func(buf []byte, n, width int, out []uint64) error, width int) {
	rng := rand.New(rand.NewSource(14))
	vals := make([]uint64, 1<<14)
	for i := range vals {
		vals[i] = rng.Uint64() & maskFor(width)
	}
	buf := PackUnsigned(vals, width)
	out := make([]uint64, len(vals))
	b.SetBytes(int64(len(vals) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := unpack(buf, len(vals), width, out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelScalarWidth7(b *testing.B)   { benchmarkKernelUnpack(b, scalarUnpackUnsigned, 7) }
func BenchmarkKernelBatchedWidth7(b *testing.B)  { benchmarkKernelUnpack(b, UnpackUnsignedInto, 7) }
func BenchmarkKernelScalarWidth13(b *testing.B)  { benchmarkKernelUnpack(b, scalarUnpackUnsigned, 13) }
func BenchmarkKernelBatchedWidth13(b *testing.B) { benchmarkKernelUnpack(b, UnpackUnsignedInto, 13) }
func BenchmarkKernelScalarWidth32(b *testing.B)  { benchmarkKernelUnpack(b, scalarUnpackUnsigned, 32) }
func BenchmarkKernelBatchedWidth32(b *testing.B) { benchmarkKernelUnpack(b, UnpackUnsignedInto, 32) }
