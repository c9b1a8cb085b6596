package delta

import (
	"errors"
	"math/rand"
	"testing"

	"arrayvers/internal/array"
)

// Differential harness for the in-place apply kernel (the fused
// unpack+apply): every dtype × cellwise method × direction is encoded
// once and decoded both by ApplyInPlace and by the scalar oracle
// (oracle_test.go), which must produce bit-identical arrays (and agree
// on errors for hostile blobs — FuzzApplyInPlace covers those).

var fusedDTypes = []array.DataType{
	array.Int8, array.Int16, array.Int32, array.Int64,
	array.UInt8, array.UInt16, array.UInt32,
	array.Float32, array.Float64,
}

// randomPair builds a base and a mutated target of the same shape:
// mostly small diffs, a sprinkling of wide outliers (so Hybrid gets a
// real overlay), and runs of identical cells.
func randomPair(t *testing.T, rng *rand.Rand, dt array.DataType, shape []int64) (target, base *array.Dense) {
	t.Helper()
	base, err := array.NewDense(dt, shape)
	if err != nil {
		t.Fatal(err)
	}
	target, err = array.NewDense(dt, shape)
	if err != nil {
		t.Fatal(err)
	}
	n := base.NumCells()
	for i := int64(0); i < n; i++ {
		b := rng.Int63() - (1 << 62)
		base.SetBits(i, array.TruncateBits(dt, b))
		switch rng.Intn(10) {
		case 0: // identical
			target.SetBits(i, base.Bits(i))
		case 1: // wide outlier
			target.SetBits(i, array.TruncateBits(dt, rng.Int63()-(1<<62)))
		default: // small diff
			target.SetBits(i, array.TruncateBits(dt, base.Bits(i)+int64(rng.Intn(31)-15)))
		}
	}
	return target, base
}

// differential applies blob to a copy of from with both kernels and
// fails unless they agree bit for bit and the in-place result is the
// copy itself; it returns the in-place result.
func differential(t *testing.T, blob []byte, from *array.Dense) *array.Dense {
	t.Helper()
	want, err := scalarApply(blob, from)
	if err != nil {
		t.Fatalf("scalar oracle: %v", err)
	}
	buf := from.Clone()
	got, err := ApplyInPlace(blob, buf)
	if err != nil {
		t.Fatalf("in-place: %v", err)
	}
	if got != buf {
		t.Fatal("in-place returned a fresh array, not its buffer")
	}
	if !got.Equal(want) {
		t.Fatal("in-place differs from the scalar oracle")
	}
	return got
}

func TestFusedDifferentialAllDTypes(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	shapes := [][]int64{{1}, {3}, {16, 16}, {7, 37}, {255}, {256}, {257}, {1000}}
	for _, dt := range fusedDTypes {
		for _, shape := range shapes {
			for _, m := range []Method{Dense, Sparse, Hybrid} {
				target, base := randomPair(t, rng, dt, shape)
				blob, err := Encode(m, target, base)
				if err != nil {
					t.Fatalf("%v %v %v: encode: %v", dt, shape, m, err)
				}
				if !differential(t, blob, base).Equal(target) {
					t.Fatalf("%v %v %v: apply does not reconstruct target", dt, shape, m)
				}
			}
		}
	}
}

// TestFusedIdenticalVersions covers the width-0 plane: a delta between
// identical arrays skips the plane pass and leaves the buffer as it was.
func TestFusedIdenticalVersions(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, m := range []Method{Dense, Hybrid} {
		target, _ := randomPair(t, rng, array.Int32, []int64{40, 10})
		blob, err := Encode(m, target, target)
		if err != nil {
			t.Fatal(err)
		}
		if blob[2] != 0 {
			t.Fatalf("%v: identical arrays encoded at width %d", m, blob[2])
		}
		if !differential(t, blob, target).Equal(target) {
			t.Fatalf("%v: width-0 apply changed the array", m)
		}
	}
}

// TestFusedAllOutliers forces a hybrid overlay covering every cell: the
// encoder may pick width 0 with all cells in the overlay, and the
// kernel's overlay patching must still override the plane everywhere.
func TestFusedAllOutliers(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	base := array.MustDense(array.Int64, []int64{300})
	target := array.MustDense(array.Int64, []int64{300})
	for i := int64(0); i < 300; i++ {
		base.SetBits(i, rng.Int63())
		target.SetBits(i, rng.Int63())
	}
	blob, err := Encode(Hybrid, target, base)
	if err != nil {
		t.Fatal(err)
	}
	if !differential(t, blob, base).Equal(target) {
		t.Fatal("apply does not reconstruct target")
	}
}

// TestFusedChain walks a chain of deltas — the shape of a real version
// chain — over one buffer, the way the store's chain walk does, checking
// every link against the oracle; then back down the chain.
func TestFusedChain(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	versions := make([]*array.Dense, 8)
	versions[0] = array.MustDense(array.Int16, []int64{12, 31})
	for i := int64(0); i < versions[0].NumCells(); i++ {
		versions[0].SetBits(i, int64(rng.Intn(1000)))
	}
	blobs := make([][]byte, 0, len(versions)-1)
	for v := 1; v < len(versions); v++ {
		next := versions[v-1].Clone()
		for i := int64(0); i < next.NumCells(); i += int64(1 + rng.Intn(4)) {
			next.SetBits(i, array.TruncateBits(array.Int16, next.Bits(i)+int64(rng.Intn(9)-4)))
		}
		versions[v] = next
		blob, err := Encode([]Method{Dense, Sparse, Hybrid}[v%3], next, versions[v-1])
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, blob)
	}
	buf := versions[0].Clone()
	for v, blob := range blobs {
		want, err := scalarApply(blob, buf)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := ApplyInPlace(blob, buf); err != nil || got != buf {
			t.Fatalf("chain link %d: ApplyInPlace = %p, %v; want its buffer", v+1, got, err)
		}
		if !buf.Equal(want) || !buf.Equal(versions[v+1]) {
			t.Fatalf("chain link %d: reconstruction differs", v+1)
		}
	}
}

// TestOverlayRejectsRepeatedIndex pins the overlay's index rule: a
// repeated index after the first entry and a gap that wraps past 2^63
// are typed errors from the kernel, rejected by the oracle too, and
// leave the buffer untouched; a zero first gap (cell 0) is legal.
func TestOverlayRejectsRepeatedIndex(t *testing.T) {
	base := fuzzBaseOf(array.Int32)
	wrap := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}
	bad := map[string][]byte{
		"repeated": {byte(Sparse), byte(array.Int32), 2, 4, 0, 2, 2},
		"wrapping": append(append([]byte{byte(Sparse), byte(array.Int32), 2, 3}, wrap...), 2, 2),
		"past end": {byte(Sparse), byte(array.Int32), 1, 64, 2},
		// ten one-byte entries: a zero gap among them, then gaps summing
		// past n
		"repeated in a group": {byte(Sparse), byte(array.Int32), 10, 1, 1, 1, 1, 1, 0, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2},
		"group past end":      {byte(Sparse), byte(array.Int32), 10, 1, 9, 9, 9, 9, 9, 9, 9, 9, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2},
	}
	for name, blob := range bad {
		buf := base.Clone()
		if _, err := ApplyInPlace(blob, buf); !errors.Is(err, ErrOverlayIndex) {
			t.Errorf("%s: err = %v, want ErrOverlayIndex", name, err)
		}
		if !buf.Equal(base) {
			t.Errorf("%s: rejected blob modified the buffer", name)
		}
		if _, err := scalarApply(blob, base); err == nil {
			t.Errorf("%s: the oracle accepted it", name)
		}
	}
	got := differential(t, []byte{byte(Sparse), byte(array.Int32), 2, 0, 63, 2, 2}, base)
	if got.Bits(0) != base.Bits(0)+1 || got.Bits(63) != base.Bits(63)+1 {
		t.Fatal("a zero first gap did not address cell 0")
	}
	// ten one-byte gaps and one more, legal: cells 1..10 and 63
	group := []byte{byte(Sparse), byte(array.Int32), 11, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 53}
	for range 11 {
		group = append(group, 0x7f)
	}
	differential(t, group, base)
}

// hybridPair is the chunk shape the store encodes and decodes most: a
// 256×256 int32 chunk whose successor changed 3% of its cells, which the
// hybrid encoder stores as a width-0 plane plus an overlay of ~2 000
// cells.
func hybridPair() (target, base *array.Dense) {
	rng := rand.New(rand.NewSource(26))
	base = array.MustDense(array.Int32, []int64{256, 256})
	for i := int64(0); i < base.NumCells(); i++ {
		base.SetBits(i, int64(rng.Intn(1<<20)))
	}
	target = base.Clone()
	for i := int64(0); i < target.NumCells(); i++ {
		if rng.Intn(100) < 3 {
			target.SetBits(i, int64(rng.Intn(1<<20)))
		}
	}
	return target, base
}

// overlayChunk is one link of the store's chain walk: a 256×256 int32
// chunk whose successor changed 2 048 scattered cells by small amounts,
// which the hybrid encoder stores as a width-0 plane plus a 2 048-entry
// overlay of one-byte gaps and values. The timer is reset.
func overlayChunk(b *testing.B) (blob []byte, base *array.Dense) {
	rng := rand.New(rand.NewSource(26))
	base = array.MustDense(array.Int32, []int64{256, 256})
	for i := int64(0); i < base.NumCells(); i++ {
		base.SetBits(i, int64(rng.Intn(1<<20)))
	}
	target := base.Clone()
	for _, i := range rng.Perm(int(target.NumCells()))[:2048] {
		target.SetBits(int64(i), target.Bits(int64(i))+int64(1+rng.Intn(60))*int64(1-2*rng.Intn(2)))
	}
	blob, err := Encode(Hybrid, target, base)
	if err != nil {
		b.Fatal(err)
	}
	if blob[2] != 0 {
		b.Fatalf("overlay chunk encoded at plane width %d, want 0", blob[2])
	}
	b.SetBytes(base.SizeBytes())
	b.ReportAllocs()
	b.ResetTimer()
	return blob, base
}

// BenchmarkApplyOverlay is the overlay pass on overlayChunk, applied to
// one buffer over and over (each apply adds the same overlay again).
func BenchmarkApplyOverlay(b *testing.B) {
	blob, base := overlayChunk(b)
	for i := 0; i < b.N; i++ {
		if _, err := ApplyInPlace(blob, base); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApplyScalarOracle is the same link through the reference
// decoder: a fresh plane and full passes over every cell.
func BenchmarkApplyScalarOracle(b *testing.B) {
	blob, base := overlayChunk(b)
	for i := 0; i < b.N; i++ {
		if _, err := scalarApply(blob, base); err != nil {
			b.Fatal(err)
		}
	}
}

// encodeSink keeps the encode benchmarks' results live.
var encodeSink []byte

// BenchmarkEncodeChunk is one chunk of an insert: the encode kernel on
// hybridPair.
func BenchmarkEncodeChunk(b *testing.B) {
	target, base := hybridPair()
	b.SetBytes(base.SizeBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob, err := Encode(Hybrid, target, base)
		if err != nil {
			b.Fatal(err)
		}
		encodeSink = blob
	}
}

// BenchmarkEncodeScalarOracle is the same chunk through the reference
// encoder: every cell through the generic accessors into n-cell planes.
func BenchmarkEncodeScalarOracle(b *testing.B) {
	target, base := hybridPair()
	b.SetBytes(base.SizeBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		encodeSink = scalarEncodeHybrid(target, base)
	}
}
