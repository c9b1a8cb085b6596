package delta

import (
	"bytes"
	"math/rand"
	"testing"

	"arrayvers/internal/array"
)

// Differential harness for the encode kernel: every dtype × shape ×
// change share × change kind is encoded by Encode and by the scalar
// oracle (oracle_test.go), which must produce byte-identical blobs for
// Dense, Sparse and Hybrid and identical EstimateSize results, and every
// blob must rebuild the target through ApplyInPlace. FuzzEncode drives
// the same check from fuzzer-chosen inputs.

// encodeKinds is the number of change kinds encodePair knows; mode 0
// mixes them.
const encodeKinds = 5

// encodePair builds a base of the given dtype and cell count from raw
// (cycled; a seeded pattern when raw is empty) and a target that changes
// each cell with probability share/255. The change kind is mode's, or a
// random one per cell for mode 0:
//
//	1: a difference of random bit length, 0..63 bits, either sign;
//	2: random bits;
//	3: the dtype's lowest signed pattern (MinInt8, MinInt32, ...);
//	4: the highest (MaxInt8, ...), so 3 and 4 cross the wrap boundary
//	   against each other and against raw extremes;
//	5: the sign bit flipped: a difference of exactly 2^(k-1), the
//	   widest code the dtype has.
func encodePair(dt array.DataType, cells int, share, mode byte, seed int64, raw []byte) (target, base *array.Dense) {
	rng := rand.New(rand.NewSource(seed))
	base = array.MustDense(dt, []int64{int64(cells)})
	data := base.Bytes()
	if len(raw) == 0 {
		rng.Read(data)
	} else {
		for i := range data {
			data[i] = raw[i%len(raw)]
		}
	}
	target = base.Clone()
	k := uint(dt.Size() * 8)
	signBit := int64(1) << (k - 1)
	for i := int64(0); i < int64(cells); i++ {
		if rng.Intn(255) >= int(share) {
			continue
		}
		kind := int(mode) % (encodeKinds + 1)
		if kind == 0 {
			kind = 1 + rng.Intn(encodeKinds)
		}
		b := base.Bits(i)
		var v int64
		switch kind {
		case 1:
			d := rng.Int63() >> rng.Intn(64)
			if rng.Intn(2) == 0 {
				d = -d
			}
			v = b + d
		case 2:
			v = int64(rng.Uint64())
		case 3:
			v = signBit
		case 4:
			v = signBit - 1
		default:
			v = b ^ signBit
		}
		target.SetBits(i, array.TruncateBits(dt, v))
	}
	return target, base
}

// checkEncode fails unless the kernel and the oracle agree byte for byte
// on every cellwise method and on EstimateSize, and each blob applies
// back to target.
func checkEncode(t *testing.T, target, base *array.Dense, seed int64) {
	t.Helper()
	for _, m := range []Method{Dense, Sparse, Hybrid} {
		got, err := Encode(m, target, base)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if want := scalarEncode(m, target, base); !bytes.Equal(got, want) {
			t.Fatalf("%v %v, %d cells: kernel blob (%d bytes) differs from the oracle's (%d bytes)",
				m, target.DType(), target.NumCells(), len(got), len(want))
		}
		buf := base.Clone()
		if out, err := ApplyInPlace(got, buf); err != nil || !out.Equal(target) {
			t.Fatalf("%v %v, %d cells: blob does not apply back to the target (err %v)", m, target.DType(), target.NumCells(), err)
		}
	}
	for _, sample := range []int{0, 16, 4096} {
		if got, want := EstimateSize(target, base, sample, seed), scalarEstimate(target, base, sample, seed); got != want {
			t.Fatalf("EstimateSize %v, %d cells, sample %d: %d, oracle %d", target.DType(), target.NumCells(), sample, got, want)
		}
	}
}

func TestEncodeDifferential(t *testing.T) {
	// cell counts around the 8-byte word: tails of every length for
	// every dtype width
	cellCounts := []int{1, 2, 3, 5, 7, 8, 9, 15, 17, 64, 255, 1001}
	seed := int64(31)
	for _, dt := range fusedDTypes {
		for _, cells := range cellCounts {
			for _, share := range []byte{0, 8, 128, 255} {
				for mode := byte(0); mode <= encodeKinds; mode++ {
					seed++
					target, base := encodePair(dt, cells, share, mode, seed, nil)
					checkEncode(t, target, base, seed)
				}
			}
		}
		// large enough that EstimateSize samples 4096 cells
		target, base := encodePair(dt, 4099, 40, 0, seed, nil)
		checkEncode(t, target, base, seed)
	}
}
