package array

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

var allDTypes = []DataType{Int8, Int16, Int32, Int64, UInt8, UInt16, UInt32, Float32, Float64}

func TestDTypeSizes(t *testing.T) {
	want := map[DataType]int{
		Int8: 1, UInt8: 1, Int16: 2, UInt16: 2,
		Int32: 4, UInt32: 4, Float32: 4, Int64: 8, Float64: 8,
	}
	for dt, sz := range want {
		if dt.Size() != sz {
			t.Errorf("%v.Size() = %d, want %d", dt, dt.Size(), sz)
		}
	}
}

func TestParseDataTypeRoundtrip(t *testing.T) {
	for _, dt := range allDTypes {
		got, err := ParseDataType(dt.String())
		if err != nil {
			t.Fatalf("ParseDataType(%q): %v", dt.String(), err)
		}
		if got != dt {
			t.Errorf("ParseDataType(%q) = %v", dt.String(), got)
		}
	}
	if _, err := ParseDataType("bogus"); err == nil {
		t.Error("expected error for bogus dtype")
	}
	if dt, err := ParseDataType("INTEGER"); err != nil || dt != Int32 {
		t.Errorf("AQL INTEGER alias: %v %v", dt, err)
	}
	if dt, err := ParseDataType("DOUBLE"); err != nil || dt != Float64 {
		t.Errorf("AQL DOUBLE alias: %v %v", dt, err)
	}
}

func TestBitsRoundtripAllDTypes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dt := range allDTypes {
		buf := make([]byte, 32*dt.Size())
		for i := 0; i < 32; i++ {
			v := TruncateBits(dt, int64(rng.Uint64()))
			PutBits(buf, dt, i, v)
			if got := GetBits(buf, dt, i); got != v {
				t.Errorf("%v: PutBits/GetBits mismatch: %d vs %d", dt, got, v)
			}
		}
	}
}

func TestFloatBitsRoundtrip(t *testing.T) {
	for _, f := range []float64{0, 1.5, -2.25, math.Pi, math.Inf(1), -0.0} {
		if got := BitsToFloat(Float64, FloatToBits(Float64, f)); got != f && !(math.IsNaN(got) && math.IsNaN(f)) {
			t.Errorf("float64 %v roundtrip gave %v", f, got)
		}
	}
	if got := BitsToFloat(Float32, FloatToBits(Float32, 1.5)); got != 1.5 {
		t.Errorf("float32 1.5 roundtrip gave %v", got)
	}
	if got := BitsToFloat(Int32, FloatToBits(Int32, 42.9)); got != 42 {
		t.Errorf("int32 42.9 truncation gave %v", got)
	}
}

func TestNewDenseValidation(t *testing.T) {
	if _, err := NewDense(DataType(99), []int64{2}); err == nil {
		t.Error("invalid dtype accepted")
	}
	if _, err := NewDense(Int32, nil); err == nil {
		t.Error("zero-dim shape accepted")
	}
	if _, err := NewDense(Int32, []int64{3, 0}); err == nil {
		t.Error("zero extent accepted")
	}
	if _, err := NewDense(Int32, []int64{3, -1}); err == nil {
		t.Error("negative extent accepted")
	}
}

func TestDenseIndexing(t *testing.T) {
	d := MustDense(Int32, []int64{3, 4, 5})
	if d.NumCells() != 60 {
		t.Fatalf("NumCells = %d", d.NumCells())
	}
	coords := []int64{2, 1, 3}
	flat := d.FlatIndex(coords)
	if flat != 2*20+1*5+3 {
		t.Fatalf("FlatIndex = %d", flat)
	}
	back := d.Coords(flat)
	for i := range coords {
		if back[i] != coords[i] {
			t.Fatalf("Coords(%d) = %v", flat, back)
		}
	}
	d.SetBitsAt(coords, -77)
	if d.BitsAt(coords) != -77 {
		t.Fatal("SetBitsAt/BitsAt mismatch")
	}
	if d.Bits(flat) != -77 {
		t.Fatal("flat read mismatch")
	}
}

func TestDenseSlice2D(t *testing.T) {
	d := MustDense(Int16, []int64{4, 6})
	for i := int64(0); i < d.NumCells(); i++ {
		d.SetBits(i, i)
	}
	box := NewBox([]int64{1, 2}, []int64{3, 5})
	s, err := d.Slice(box)
	if err != nil {
		t.Fatal(err)
	}
	wantShape := []int64{2, 3}
	for i := range wantShape {
		if s.Shape()[i] != wantShape[i] {
			t.Fatalf("slice shape %v", s.Shape())
		}
	}
	for r := int64(0); r < 2; r++ {
		for c := int64(0); c < 3; c++ {
			want := (r+1)*6 + (c + 2)
			if got := s.BitsAt([]int64{r, c}); got != want {
				t.Errorf("slice[%d,%d] = %d, want %d", r, c, got, want)
			}
		}
	}
}

func TestDenseSliceErrors(t *testing.T) {
	d := MustDense(Int8, []int64{4, 4})
	if _, err := d.Slice(NewBox([]int64{0}, []int64{2})); err == nil {
		t.Error("dim mismatch accepted")
	}
	if _, err := d.Slice(NewBox([]int64{0, 0}, []int64{5, 4})); err == nil {
		t.Error("out-of-bounds box accepted")
	}
	if _, err := d.Slice(NewBox([]int64{2, 2}, []int64{1, 3})); err == nil {
		t.Error("inverted box accepted")
	}
}

func TestWriteRegion(t *testing.T) {
	d := MustDense(Int32, []int64{5, 5})
	patch := MustDense(Int32, []int64{2, 3})
	for i := int64(0); i < 6; i++ {
		patch.SetBits(i, 100+i)
	}
	if err := d.WriteRegion([]int64{3, 1}, patch); err != nil {
		t.Fatal(err)
	}
	if got := d.BitsAt([]int64{3, 1}); got != 100 {
		t.Errorf("corner = %d", got)
	}
	if got := d.BitsAt([]int64{4, 3}); got != 105 {
		t.Errorf("far corner = %d", got)
	}
	if got := d.BitsAt([]int64{2, 1}); got != 0 {
		t.Errorf("outside region modified: %d", got)
	}
	if err := d.WriteRegion([]int64{4, 4}, patch); err == nil {
		t.Error("overflow region accepted")
	}
}

func TestSliceWriteRegionInverse(t *testing.T) {
	// Slicing a region then writing it back must be the identity.
	rng := rand.New(rand.NewSource(11))
	d := MustDense(Float32, []int64{7, 9})
	for i := int64(0); i < d.NumCells(); i++ {
		d.SetFloat(i, rng.Float64()*100)
	}
	box := NewBox([]int64{2, 3}, []int64{6, 8})
	s, err := d.Slice(box)
	if err != nil {
		t.Fatal(err)
	}
	clone := d.Clone()
	if err := clone.WriteRegion(box.Lo, s); err != nil {
		t.Fatal(err)
	}
	if !clone.Equal(d) {
		t.Fatal("slice+write-back is not identity")
	}
}

// TestCopyRegionMatchesSliceThenWrite checks the one-copy region move
// against its two-copy spelling on a 3-D array, then its bounds checks.
func TestCopyRegionMatchesSliceThenWrite(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	src := MustDense(Int16, []int64{4, 6, 5})
	for i := int64(0); i < src.NumCells(); i++ {
		src.SetBits(i, int64(rng.Intn(1<<15)))
	}
	box := NewBox([]int64{1, 2, 1}, []int64{3, 6, 4})
	offset := []int64{2, 0, 3}
	want := MustDense(Int16, []int64{5, 5, 7})
	piece, err := src.Slice(box)
	if err != nil {
		t.Fatal(err)
	}
	if err := want.WriteRegion(offset, piece); err != nil {
		t.Fatal(err)
	}
	got := MustDense(Int16, []int64{5, 5, 7})
	if err := got.CopyRegion(offset, src, box); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("CopyRegion differs from Slice then WriteRegion")
	}
	if err := got.CopyRegion([]int64{4, 0, 3}, src, box); err == nil {
		t.Error("destination overflow accepted")
	}
	if err := got.CopyRegion(offset, src, NewBox([]int64{1, 2, 1}, []int64{5, 6, 4})); err == nil {
		t.Error("source box past the array accepted")
	}
	if err := got.CopyRegion(offset, MustDense(Int32, []int64{4, 6, 5}), box); err == nil {
		t.Error("dtype mismatch accepted")
	}
}

func TestStack(t *testing.T) {
	a := MustDense(Int8, []int64{2, 2})
	b := MustDense(Int8, []int64{2, 2})
	a.Fill(1)
	b.Fill(2)
	st, err := Stack([]*Dense{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if st.NDim() != 3 || st.Shape()[0] != 2 {
		t.Fatalf("stack shape %v", st.Shape())
	}
	if st.BitsAt([]int64{0, 1, 1}) != 1 || st.BitsAt([]int64{1, 0, 0}) != 2 {
		t.Fatal("stack content wrong")
	}
	if _, err := Stack(nil); err == nil {
		t.Error("empty stack accepted")
	}
	c := MustDense(Int8, []int64{2, 3})
	if _, err := Stack([]*Dense{a, c}); err == nil {
		t.Error("shape mismatch accepted")
	}
	d := MustDense(Int16, []int64{2, 2})
	if _, err := Stack([]*Dense{a, d}); err == nil {
		t.Error("dtype mismatch accepted")
	}
}

func TestSparseBasics(t *testing.T) {
	s := MustSparse(Int32, []int64{10, 10}, 0)
	if s.NNZ() != 0 || s.NumCells() != 100 {
		t.Fatal("fresh sparse wrong")
	}
	s.SetBits(55, 7)
	s.SetBits(3, -2)
	s.SetBits(99, 1)
	if s.NNZ() != 3 {
		t.Fatalf("NNZ = %d", s.NNZ())
	}
	if s.Bits(55) != 7 || s.Bits(3) != -2 || s.Bits(99) != 1 || s.Bits(50) != 0 {
		t.Fatal("sparse reads wrong")
	}
	s.SetBits(55, 0) // set back to fill removes entry
	if s.NNZ() != 2 || s.Bits(55) != 0 {
		t.Fatal("fill-removal failed")
	}
	s.SetBits(3, 9) // overwrite
	if s.Bits(3) != 9 || s.NNZ() != 2 {
		t.Fatal("overwrite failed")
	}
}

func TestSparseFromPairs(t *testing.T) {
	s, err := SparseFromPairs(Int32, []int64{4, 4}, -1, []int64{9, 2, 9, 5}, []int64{10, 20, 30, -1})
	if err != nil {
		t.Fatal(err)
	}
	// duplicate idx 9 keeps last (30); value -1 == fill dropped.
	if s.NNZ() != 2 {
		t.Fatalf("NNZ = %d", s.NNZ())
	}
	if s.Bits(9) != 30 || s.Bits(2) != 20 || s.Bits(5) != -1 {
		t.Fatal("pairs content wrong")
	}
	if _, err := SparseFromPairs(Int32, []int64{2}, 0, []int64{5}, []int64{1}); err == nil {
		t.Error("out-of-range index accepted")
	}
	if _, err := SparseFromPairs(Int32, []int64{2}, 0, []int64{0, 1}, []int64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestSparseDenseRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	d := MustDense(Int16, []int64{8, 8})
	for i := 0; i < 10; i++ {
		d.SetBits(int64(rng.Intn(64)), int64(rng.Intn(100)+1))
	}
	s, err := SparseFromDense(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	back, err := s.ToDense()
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(d) {
		t.Fatal("sparse/dense roundtrip mismatch")
	}
}

func TestSparseSlice(t *testing.T) {
	s := MustSparse(Int32, []int64{6, 6}, 0)
	s.SetBits(s6(1, 1), 11)
	s.SetBits(s6(2, 3), 23)
	s.SetBits(s6(5, 5), 55)
	sub, err := s.Slice(NewBox([]int64{1, 1}, []int64{4, 4}))
	if err != nil {
		t.Fatal(err)
	}
	if sub.NNZ() != 2 {
		t.Fatalf("sub NNZ = %d", sub.NNZ())
	}
	if sub.Bits(0) != 11 { // (0,0) in sub = (1,1) in full
		t.Fatal("sub[0,0] wrong")
	}
	if sub.Bits(1*3+2) != 23 { // (1,2) in sub = (2,3) in full
		t.Fatal("sub[1,2] wrong")
	}
}

func s6(r, c int64) int64 { return r*6 + c }

func TestSparsePairsOrdered(t *testing.T) {
	s := MustSparse(Int32, []int64{100}, 0)
	for _, ix := range []int64{50, 3, 99, 20} {
		s.SetBits(ix, ix)
	}
	var got []int64
	s.Pairs(func(flat, bits int64) {
		got = append(got, flat)
		if bits != flat {
			t.Errorf("pair value %d at %d", bits, flat)
		}
	})
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatal("pairs not sorted")
		}
	}
}

func TestMarshalDenseRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, dt := range allDTypes {
		d := MustDense(dt, []int64{3, 5})
		for i := int64(0); i < d.NumCells(); i++ {
			d.SetBits(i, TruncateBits(dt, int64(rng.Uint64())))
		}
		blob := MarshalDense(d)
		back, err := UnmarshalDense(blob)
		if err != nil {
			t.Fatalf("%v: %v", dt, err)
		}
		if !back.Equal(d) {
			t.Fatalf("%v: roundtrip mismatch", dt)
		}
	}
}

func TestMarshalSparseRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, dt := range allDTypes {
		s := MustSparse(dt, []int64{50, 50}, TruncateBits(dt, 42))
		for i := 0; i < 30; i++ {
			s.SetBits(int64(rng.Intn(2500)), TruncateBits(dt, int64(rng.Uint64())))
		}
		blob := MarshalSparse(s)
		back, err := UnmarshalSparse(blob)
		if err != nil {
			t.Fatalf("%v: %v", dt, err)
		}
		if !back.Equal(s) {
			t.Fatalf("%v: roundtrip mismatch", dt)
		}
	}
}

func TestUnmarshalGeneric(t *testing.T) {
	d := MustDense(Int8, []int64{2})
	s := MustSparse(Int8, []int64{2}, 0)
	db, _ := Marshal(d)
	sb, _ := Marshal(s)
	if v, err := Unmarshal(db); err != nil {
		t.Fatal(err)
	} else if _, ok := v.(*Dense); !ok {
		t.Fatal("dense blob decoded to wrong type")
	}
	if v, err := Unmarshal(sb); err != nil {
		t.Fatal(err)
	} else if _, ok := v.(*Sparse); !ok {
		t.Fatal("sparse blob decoded to wrong type")
	}
	if _, err := Unmarshal([]byte{1, 2, 3}); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Marshal(42); err == nil {
		t.Error("non-array accepted")
	}
}

func TestUnmarshalCorrupt(t *testing.T) {
	d := MustDense(Int32, []int64{4, 4})
	blob := MarshalDense(d)
	if _, err := UnmarshalDense(blob[:len(blob)-5]); err == nil {
		t.Error("truncated dense blob accepted")
	}
	s := MustSparse(Int32, []int64{4, 4}, 0)
	s.SetBits(3, 9)
	sb := MarshalSparse(s)
	if _, err := UnmarshalSparse(sb[:len(sb)-2]); err == nil {
		t.Error("truncated sparse blob accepted")
	}
}

func TestBoxAlgebra(t *testing.T) {
	a := NewBox([]int64{0, 0}, []int64{4, 4})
	b := NewBox([]int64{2, 2}, []int64{6, 6})
	inter := a.Intersect(b)
	if !inter.Equal(NewBox([]int64{2, 2}, []int64{4, 4})) {
		t.Fatalf("intersect = %v", inter)
	}
	if inter.NumCells() != 4 {
		t.Fatalf("intersect cells = %d", inter.NumCells())
	}
	if !a.Overlaps(b) || a.Overlaps(NewBox([]int64{4, 0}, []int64{5, 4})) {
		t.Fatal("overlaps wrong")
	}
	if !a.Contains([]int64{3, 3}) || a.Contains([]int64{4, 0}) {
		t.Fatal("contains wrong")
	}
	if !a.ContainsBox(inter) || b.ContainsBox(a) {
		t.Fatal("containsBox wrong")
	}
	tr := b.Translate([]int64{2, 2})
	if !tr.Equal(NewBox([]int64{0, 0}, []int64{4, 4})) {
		t.Fatalf("translate = %v", tr)
	}
	if BoxOf([]int64{3, 3}).NumCells() != 9 {
		t.Fatal("BoxOf wrong")
	}
	empty := NewBox([]int64{1, 1}, []int64{1, 5})
	if !empty.Empty() || empty.NumCells() != 0 {
		t.Fatal("empty box wrong")
	}
}

func TestSchemaValidate(t *testing.T) {
	good := Schema{
		Name:  "Example",
		Dims:  []Dimension{{Name: "I", Lo: 0, Hi: 2}, {Name: "J", Lo: 0, Hi: 2}},
		Attrs: []Attribute{{Name: "A", Type: Int32}},
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := good.NumCells(); got != 9 {
		t.Fatalf("NumCells = %d", got)
	}
	if got := good.Shape(); got[0] != 3 || got[1] != 3 {
		t.Fatalf("Shape = %v", got)
	}
	if good.AttrIndex("A") != 0 || good.AttrIndex("Z") != -1 {
		t.Fatal("AttrIndex wrong")
	}
	bad := []Schema{
		{Name: "2bad", Dims: good.Dims, Attrs: good.Attrs},
		{Name: "X", Attrs: good.Attrs},
		{Name: "X", Dims: good.Dims},
		{Name: "X", Dims: []Dimension{{Name: "I", Lo: 5, Hi: 2}}, Attrs: good.Attrs},
		{Name: "X", Dims: []Dimension{{Name: "I", Lo: 0, Hi: 2}, {Name: "I", Lo: 0, Hi: 2}}, Attrs: good.Attrs},
		{Name: "X", Dims: good.Dims, Attrs: []Attribute{{Name: "A", Type: DataType(99)}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad schema %d accepted", i)
		}
	}
}

func TestFlatIndexCoordsProperty(t *testing.T) {
	d := MustDense(Int8, []int64{5, 7, 3})
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		coords := []int64{int64(rng.Intn(5)), int64(rng.Intn(7)), int64(rng.Intn(3))}
		flat := d.FlatIndex(coords)
		back := d.Coords(flat)
		for i := range coords {
			if back[i] != coords[i] {
				return false
			}
		}
		return flat >= 0 && flat < d.NumCells()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSparseDensityAndSize(t *testing.T) {
	s := MustSparse(Int32, []int64{10, 10}, 0)
	s.SetBits(0, 1)
	s.SetBits(1, 2)
	if s.Density() != 0.02 {
		t.Fatalf("density = %v", s.Density())
	}
	if s.SizeBytes() != 2*(8+4) {
		t.Fatalf("sizeBytes = %d", s.SizeBytes())
	}
}
