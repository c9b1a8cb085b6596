package delta

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"arrayvers/internal/array"
)

// Differential harness for the encode kernel: every dtype × shape ×
// change share × change kind is encoded by Encode and by the scalar
// oracle (oracle_test.go), which must produce byte-identical blobs for
// Dense, Sparse and Hybrid and identical sampled estimates, and every
// blob must rebuild the target through ApplyInPlace; EncodeHybridUnder
// must return Encode's hybrid blob under every limit above its length
// and nil under every other. FuzzEncode drives the same check from
// fuzzer-chosen inputs.

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

// estimateSize is the sampled estimator for one pair: the three calls
// the materialization matrix makes, passing only the sampled positions
// where the two differ as the matrix passes only those some version of
// its series changes, or the exact hybrid size when the sample covers
// the array.
func estimateSize(target, base *array.Dense, sample int, seed int64) int64 {
	n := target.NumCells()
	if sample <= 0 || int64(sample) >= n {
		blob, _ := Encode(Hybrid, target, base)
		return int64(len(blob))
	}
	idx := SampleCells(n, sample, seed)
	tv, bv := Gather(target, idx), Gather(base, idx)
	k := 0
	for i := range tv {
		if tv[i] != bv[i] {
			tv[k], bv[k] = tv[i], bv[i]
			k++
		}
	}
	return EstimateSampled(target.DType(), n, int64(sample), tv[:k], bv[:k])
}

// checkEncode fails unless the kernel and the oracle agree byte for byte
// on every cellwise method and on the sampled estimate, each blob
// applies back to target, and the bounded encode returns the hybrid blob
// exactly when it is shorter than the limit.
func checkEncode(t *testing.T, target, base *array.Dense, seed int64) {
	t.Helper()
	hybrid, err := Encode(Hybrid, target, base)
	if err != nil {
		t.Fatal(err)
	}
	checkBounded(t, target, base, hybrid)
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
		if got, want := estimateSize(target, base, sample, seed), scalarEstimate(target, base, sample, seed); got != want {
			t.Fatalf("estimate %v, %d cells, sample %d: %d, oracle %d", target.DType(), target.NumCells(), sample, got, want)
		}
	}
}

// checkBounded runs EncodeHybridUnder at limits around hybrid's length,
// around the raw size (the store's limit) and at the extremes: it must
// return nil exactly when len(hybrid) >= limit, and hybrid otherwise.
func checkBounded(t *testing.T, target, base *array.Dense, hybrid []byte) {
	t.Helper()
	l, raw := len(hybrid), int(target.SizeBytes())
	for _, limit := range []int{0, 1, l - 1, l, l + 1, raw - 1, raw, raw + 1, math.MaxInt} {
		got, err := EncodeHybridUnder(target, base, limit)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case l >= limit && got != nil:
			t.Fatalf("%v, %d cells: bounded encode at limit %d returned %d bytes; the blob is %d", target.DType(), target.NumCells(), limit, len(got), l)
		case l < limit && !bytes.Equal(got, hybrid):
			t.Fatalf("%v, %d cells: bounded encode at limit %d (%d bytes) differs from Encode's blob (%d bytes)", target.DType(), target.NumCells(), limit, len(got), l)
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
		// large enough that the estimate samples 4096 cells
		target, base := encodePair(dt, 4099, 40, 0, seed, nil)
		checkEncode(t, target, base, seed)
	}
}

// farPair is two unrelated 256×256 int32 chunks of random cells over the
// full range: the pair an insert of unrelated content tries, whose hybrid
// blob (a 32-bit plane) is never smaller than the raw chunk.
func farPair() (target, base *array.Dense) {
	rng := rand.New(rand.NewSource(27))
	target = array.MustDense(array.Int32, []int64{256, 256})
	base = array.MustDense(array.Int32, []int64{256, 256})
	rng.Read(target.Bytes())
	rng.Read(base.Bytes())
	return target, base
}

// patchPair is a 256×256 int32 chunk whose successor changed 3 % of its
// cells in 16 square patches by a little — the shape of an insert into
// a drifting field — so most 128-byte runs of the pair are equal.
func patchPair() (target, base *array.Dense) {
	rng := rand.New(rand.NewSource(28))
	base = array.MustDense(array.Int32, []int64{256, 256})
	for i := int64(0); i < base.NumCells(); i++ {
		base.SetBits(i, int64(rng.Intn(1<<20)))
	}
	target = base.Clone()
	for p := 0; p < 16; p++ {
		y0, x0 := int64(rng.Intn(245)), int64(rng.Intn(245))
		for y := y0; y < y0+11; y++ {
			for x := x0; x < x0+11; x++ {
				target.SetBits(y*256+x, target.Bits(y*256+x)+int64(rng.Intn(61)-30))
			}
		}
	}
	return target, base
}

// BenchmarkEncodePatches is the encode kernel on patchPair.
func BenchmarkEncodePatches(b *testing.B) {
	target, base := patchPair()
	b.SetBytes(base.SizeBytes())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		encodeSink, _ = EncodeHybridUnder(target, base, int(base.SizeBytes()))
	}
}

// TestBoundedEncodeFarPairAllocs: refusing a far pair at the raw chunk's
// size takes pass 1 alone and allocates nothing.
func TestBoundedEncodeFarPairAllocs(t *testing.T) {
	target, base := farPair()
	limit := int(target.SizeBytes())
	if hybrid, _ := Encode(Hybrid, target, base); len(hybrid) < limit {
		t.Fatalf("far pair encodes to %d bytes, under the raw %d", len(hybrid), limit)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if blob, err := EncodeHybridUnder(target, base, limit); blob != nil || err != nil {
			t.Fatalf("bounded encode of a far pair: %d bytes, %v", len(blob), err)
		}
	})
	if allocs != 0 {
		t.Fatalf("bounded encode of a far pair allocates %v times, want 0", allocs)
	}
}

// BenchmarkEncodeFar is the far pair an unrelated insert tries, encoded
// in full and bounded at the raw chunk's size (pass 1 only).
func BenchmarkEncodeFar(b *testing.B) {
	target, base := farPair()
	limit := int(target.SizeBytes())
	b.Run("full", func(b *testing.B) {
		b.SetBytes(base.SizeBytes())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			encodeSink, _ = Encode(Hybrid, target, base)
		}
	})
	b.Run("bounded", func(b *testing.B) {
		b.SetBytes(base.SizeBytes())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			encodeSink, _ = EncodeHybridUnder(target, base, limit)
		}
	})
}

// TestAlike: the probe tells a near pair (3 % of cells changed) from a
// far one (unrelated cells), and passes arrays too small to probe.
func TestAlike(t *testing.T) {
	near, nearBase := hybridPair()
	far, farBase := farPair()
	tiny := array.MustDense(array.Int8, []int64{7})
	for _, c := range []struct {
		name         string
		target, base *array.Dense
		want         bool
	}{
		{"near", near, nearBase, true},
		{"far", far, farBase, false},
		{"identical", far, far, true},
		{"under a word", tiny, array.MustDense(array.Int8, []int64{7}), true},
	} {
		if got := Alike(c.target, c.base); got != c.want {
			t.Errorf("%s: Alike = %v, want %v", c.name, got, c.want)
		}
	}
}
