package delta

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"arrayvers/internal/array"
	"arrayvers/internal/bitpack"
)

var denseMethods = []Method{Dense, Sparse, Hybrid, BlockMatch, BSDiff}

// makePair builds a base array and a similar target (mostly small
// perturbations with a few large outliers), mirroring the NOAA data's
// "very similar, but not quite identical" structure.
func makePair(dt array.DataType, shape []int64, seed int64) (target, base *array.Dense) {
	rng := rand.New(rand.NewSource(seed))
	base = array.MustDense(dt, shape)
	n := base.NumCells()
	for i := int64(0); i < n; i++ {
		base.SetBits(i, array.TruncateBits(dt, int64(rng.Intn(1000))))
	}
	target = base.Clone()
	for i := int64(0); i < n; i++ {
		if rng.Float64() < 0.3 {
			target.SetBits(i, array.TruncateBits(dt, base.Bits(i)+int64(rng.Intn(7)-3)))
		}
		if rng.Float64() < 0.01 {
			target.SetBits(i, array.TruncateBits(dt, int64(rng.Uint64())))
		}
	}
	return target, base
}

func TestEncodeApplyRoundtripAllMethods(t *testing.T) {
	dtypes := []array.DataType{array.Int8, array.Int16, array.Int32, array.Int64, array.UInt8, array.UInt16, array.UInt32, array.Float32, array.Float64}
	for _, dt := range dtypes {
		target, base := makePair(dt, []int64{24, 20}, int64(dt))
		for _, m := range denseMethods {
			blob, err := Encode(m, target, base)
			if err != nil {
				t.Fatalf("%v/%v: encode: %v", m, dt, err)
			}
			got, err := Apply(blob, base)
			if err != nil {
				t.Fatalf("%v/%v: apply: %v", m, dt, err)
			}
			if !got.Equal(target) {
				t.Fatalf("%v/%v: apply mismatch", m, dt)
			}
			if gotM, _ := MethodOf(blob); gotM != m {
				t.Fatalf("%v/%v: MethodOf = %v", m, dt, gotM)
			}
		}
	}
}

func TestIdenticalArraysNegligibleDelta(t *testing.T) {
	a := array.MustDense(array.Int32, []int64{64, 64})
	a.Fill(42)
	for _, m := range []Method{Dense, Sparse, Hybrid} {
		blob, err := Encode(m, a, a.Clone())
		if err != nil {
			t.Fatal(err)
		}
		// paper: "if Ai and Aj are identical, the delta data will use
		// negligible space on disk"
		if len(blob) > 8 {
			t.Errorf("%v: identical-array delta uses %d bytes", m, len(blob))
		}
		got, err := Apply(blob, a)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(a) {
			t.Fatalf("%v: identity apply mismatch", m)
		}
	}
}

func TestSimilarArraysBeatMaterialization(t *testing.T) {
	// Sparse and Hybrid must beat materialization on NOAA-like data even
	// with rare wide outliers; Dense (uniform width) only beats it when
	// all diffs are narrow, so test it on outlier-free data separately.
	target, base := makePair(array.Int32, []int64{64, 64}, 5)
	raw := int(MaterializedSize(target))
	for _, m := range []Method{Sparse, Hybrid} {
		blob, _ := Encode(m, target, base)
		if len(blob) >= raw {
			t.Errorf("%v: delta %d bytes >= raw %d bytes on similar arrays", m, len(blob), raw)
		}
	}
	narrowTarget := base.Clone()
	for i := int64(0); i < narrowTarget.NumCells(); i++ {
		narrowTarget.SetBits(i, base.Bits(i)+i%3)
	}
	blob, _ := Encode(Dense, narrowTarget, base)
	if len(blob) >= raw {
		t.Errorf("dense: delta %d bytes >= raw %d bytes on narrow diffs", len(blob), raw)
	}
}

func TestHybridNoWorseThanDenseOrSparse(t *testing.T) {
	// The hybrid split is chosen by cost minimization, so it should be
	// within a small constant of the better of dense and sparse.
	for seed := int64(0); seed < 5; seed++ {
		target, base := makePair(array.Int32, []int64{32, 32}, seed)
		d, _ := Encode(Dense, target, base)
		s, _ := Encode(Sparse, target, base)
		h, _ := Encode(Hybrid, target, base)
		best := len(d)
		if len(s) < best {
			best = len(s)
		}
		if len(h) > best+best/8+16 {
			t.Errorf("seed %d: hybrid %d bytes vs best %d", seed, len(h), best)
		}
	}
}

func TestBlockMatchShiftedImage(t *testing.T) {
	// A target that is a pure translation of the base should compress far
	// better with block matching than with plain cellwise deltas.
	h, w := int64(64), int64(64)
	base := array.MustDense(array.UInt8, []int64{h, w})
	rng := rand.New(rand.NewSource(21))
	for i := int64(0); i < base.NumCells(); i++ {
		base.SetBits(i, int64(rng.Intn(256)))
	}
	target := array.MustDense(array.UInt8, []int64{h, w})
	// shift by (3, 5), borders keep base values
	for r := int64(0); r < h; r++ {
		for c := int64(0); c < w; c++ {
			sr, sc := r+3, c+5
			if sr < h && sc < w {
				target.SetBitsAt([]int64{r, c}, base.BitsAt([]int64{sr, sc}))
			} else {
				target.SetBitsAt([]int64{r, c}, base.BitsAt([]int64{r, c}))
			}
		}
	}
	bm, err := Encode(BlockMatch, target, base)
	if err != nil {
		t.Fatal(err)
	}
	dn, _ := Encode(Dense, target, base)
	if len(bm) >= len(dn) {
		t.Errorf("blockmatch %d bytes >= dense %d bytes on shifted image", len(bm), len(dn))
	}
	got, err := Apply(bm, base)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(target) {
		t.Fatal("blockmatch roundtrip mismatch")
	}
}

func TestBlockMatchNon2DRejected(t *testing.T) {
	a := array.MustDense(array.Int8, []int64{4, 4, 4})
	if _, err := Encode(BlockMatch, a, a.Clone()); err == nil {
		t.Fatal("3D blockmatch accepted")
	}
}

func TestBSDiffRandomBuffers(t *testing.T) {
	// bsdiff must roundtrip even on adversarial inputs
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		n := int64(1 + rng.Intn(40))
		base := array.MustDense(array.UInt8, []int64{n})
		target := array.MustDense(array.UInt8, []int64{n})
		for i := int64(0); i < n; i++ {
			base.SetBits(i, int64(rng.Intn(256)))
			target.SetBits(i, int64(rng.Intn(256)))
		}
		blob, err := Encode(BSDiff, target, base)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Apply(blob, base)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !got.Equal(target) {
			t.Fatalf("trial %d: bsdiff roundtrip mismatch", trial)
		}
	}
}

func TestBSDiffSimilarBuffersCompress(t *testing.T) {
	target, base := makePair(array.UInt8, []int64{128, 128}, 77)
	blob, err := Encode(BSDiff, target, base)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(blob)) >= MaterializedSize(target) {
		t.Errorf("bsdiff %d bytes >= raw %d", len(blob), MaterializedSize(target))
	}
}

func TestShapeAndDTypeMismatchRejected(t *testing.T) {
	a := array.MustDense(array.Int32, []int64{4, 4})
	b := array.MustDense(array.Int32, []int64{4, 5})
	c := array.MustDense(array.Int16, []int64{4, 4})
	d3 := array.MustDense(array.Int32, []int64{4, 4, 1})
	for _, m := range denseMethods {
		if _, err := Encode(m, a, b); err == nil {
			t.Errorf("%v: shape mismatch accepted", m)
		}
		if _, err := Encode(m, a, c); err == nil {
			t.Errorf("%v: dtype mismatch accepted", m)
		}
		if _, err := Encode(m, a, d3); err == nil {
			t.Errorf("%v: ndim mismatch accepted", m)
		}
	}
}

func TestApplyWrongBaseDTypeRejected(t *testing.T) {
	target, base := makePair(array.Int32, []int64{8, 8}, 3)
	blob, _ := Encode(Dense, target, base)
	wrong := array.MustDense(array.Int16, []int64{8, 8})
	if _, err := Apply(blob, wrong); err == nil {
		t.Fatal("wrong-dtype base accepted")
	}
}

func TestCorruptBlobRejected(t *testing.T) {
	target, base := makePair(array.Int32, []int64{8, 8}, 3)
	for _, m := range denseMethods {
		blob, _ := Encode(m, target, base)
		if _, err := Apply(blob[:2], base); err == nil {
			t.Errorf("%v: truncated blob accepted", m)
		}
		if _, err := Apply([]byte{0xFF, 0xFF}, base); err == nil {
			t.Errorf("%v: garbage method byte accepted", m)
		}
	}
	if _, err := Apply(nil, base); err == nil {
		t.Error("empty blob accepted")
	}
}

func TestWrapDiffAddProperty(t *testing.T) {
	dtypes := []array.DataType{array.Int8, array.UInt8, array.Int16, array.Int32, array.UInt32, array.Int64, array.Float32, array.Float64}
	f := func(tRaw, bRaw int64) bool {
		for _, dt := range dtypes {
			tb := array.TruncateBits(dt, tRaw)
			bb := array.TruncateBits(dt, bRaw)
			d := wrapDiff(dt, tb, bb)
			if wrapAdd(dt, bb, d) != tb {
				return false
			}
			// the representative must fit within the dtype's bit width
			if bitpack.SignedWidth(d) > dt.Size()*8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestRoundtripPropertyQuick(t *testing.T) {
	f := func(seed int64) bool {
		target, base := makePair(array.Int16, []int64{9, 7}, seed)
		for _, m := range []Method{Dense, Sparse, Hybrid} {
			blob, err := Encode(m, target, base)
			if err != nil {
				return false
			}
			got, err := Apply(blob, base)
			if err != nil || !got.Equal(target) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSparseOpsRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	base := array.MustSparse(array.Int32, []int64{1000, 1000}, 0)
	for i := 0; i < 500; i++ {
		base.SetBits(rng.Int63n(1000*1000), int64(rng.Intn(100)+1))
	}
	target := base.Clone()
	// churn: inserts, updates, deletes
	target.Pairs(func(flat, bits int64) {})
	for i := 0; i < 50; i++ {
		target.SetBits(rng.Int63n(1000*1000), int64(rng.Intn(100)+1)) // insert/update
	}
	deleted := 0
	base.Pairs(func(flat, bits int64) {
		if deleted < 20 && flat%37 == 0 {
			target.SetBits(flat, 0)
			deleted++
		}
	})
	blob, err := EncodeSparseOps(target, base)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ApplySparseOps(blob, base)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(target) {
		t.Fatal("sparseops apply mismatch")
	}
	// delta should be far smaller than materializing
	if int64(len(blob)) >= SparseMaterializedSize(target) {
		t.Errorf("sparseops %d bytes >= materialized %d", len(blob), SparseMaterializedSize(target))
	}
}

func TestSparseOpsValidation(t *testing.T) {
	a := array.MustSparse(array.Int32, []int64{10}, 0)
	b := array.MustSparse(array.Int32, []int64{11}, 0)
	c := array.MustSparse(array.Int16, []int64{10}, 0)
	d := array.MustSparse(array.Int32, []int64{10}, 5)
	if _, err := EncodeSparseOps(a, b); err == nil {
		t.Error("shape mismatch accepted")
	}
	if _, err := EncodeSparseOps(a, c); err == nil {
		t.Error("dtype mismatch accepted")
	}
	if _, err := EncodeSparseOps(a, d); err == nil {
		t.Error("fill mismatch accepted")
	}
	if _, err := ApplySparseOps([]byte{1, 2}, a); err == nil {
		t.Error("garbage blob accepted")
	}
}

func TestEstimateSizeAccuracy(t *testing.T) {
	target, base := makePair(array.Int32, []int64{128, 128}, 51)
	exact := estimateSize(target, base, 0, 1)
	est := estimateSize(target, base, 1024, 1)
	ratio := float64(est) / float64(exact)
	if ratio < 0.4 || ratio > 2.5 {
		t.Errorf("sampled estimate %d vs exact %d (ratio %.2f)", est, exact, ratio)
	}
}

func TestSuffixArraySorted(t *testing.T) {
	data := []byte("banana_bandana_ananas")
	sa := suffixArray(data)
	if len(sa) != len(data) {
		t.Fatalf("sa length %d", len(sa))
	}
	for i := 1; i < len(sa); i++ {
		if bytes.Compare(data[sa[i-1]:], data[sa[i]:]) >= 0 {
			t.Fatalf("suffixes %d and %d out of order", i-1, i)
		}
	}
}

func TestSuffixArrayProperty(t *testing.T) {
	f := func(data []byte) bool {
		if len(data) > 200 {
			data = data[:200]
		}
		sa := suffixArray(data)
		if len(sa) != len(data) {
			return false
		}
		seen := make(map[int32]bool, len(sa))
		for i := range sa {
			if seen[sa[i]] {
				return false
			}
			seen[sa[i]] = true
			if i > 0 && bytes.Compare(data[sa[i-1]:], data[sa[i]:]) >= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSASearchFindsLongestMatch(t *testing.T) {
	old := []byte("the quick brown fox jumps over the lazy dog")
	sa := suffixArray(old)
	l, p := saSearch(sa, old, []byte("brown fox leaps"))
	if l != len("brown fox ") {
		t.Fatalf("match length %d", l)
	}
	if string(old[p:p+l]) != "brown fox " {
		t.Fatalf("match at %d = %q", p, old[p:p+l])
	}
	// "zzzz" matches only the single 'z' of "lazy"
	l, _ = saSearch(sa, old, []byte("zzzz"))
	if l != 1 {
		t.Fatalf("match length %d, want 1", l)
	}
	l, _ = saSearch(sa, old, []byte("!!!!"))
	if l != 0 {
		t.Fatalf("phantom match length %d", l)
	}
}

func TestParseMethodRoundtrip(t *testing.T) {
	for _, m := range []Method{Dense, Sparse, Hybrid, BlockMatch, BSDiff, SparseOps} {
		got, err := ParseMethod(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMethod(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMethod("nope"); err == nil {
		t.Error("bogus method accepted")
	}
}

func BenchmarkEncodeDense(b *testing.B)  { benchEncode(b, Dense) }
func BenchmarkEncodeSparse(b *testing.B) { benchEncode(b, Sparse) }
func BenchmarkEncodeHybrid(b *testing.B) { benchEncode(b, Hybrid) }
func BenchmarkEncodeBSDiff(b *testing.B) { benchEncode(b, BSDiff) }

func benchEncode(b *testing.B, m Method) {
	target, base := makePair(array.Float32, []int64{256, 256}, 1)
	b.SetBytes(target.SizeBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(m, target, base); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkApplyHybrid(b *testing.B) {
	target, base := makePair(array.Float32, []int64{256, 256}, 1)
	blob, err := Encode(Hybrid, target, base)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(target.SizeBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Apply(blob, base); err != nil {
			b.Fatal(err)
		}
	}
}
