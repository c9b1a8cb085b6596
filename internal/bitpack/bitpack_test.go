package bitpack

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestZigzagKnownValues(t *testing.T) {
	cases := []struct {
		v int64
		u uint64
	}{
		{0, 0}, {-1, 1}, {1, 2}, {-2, 3}, {2, 4},
		{math.MaxInt64, math.MaxUint64 - 1},
		{math.MinInt64, math.MaxUint64},
	}
	for _, c := range cases {
		if got := Zigzag(c.v); got != c.u {
			t.Errorf("Zigzag(%d) = %d, want %d", c.v, got, c.u)
		}
		if got := Unzigzag(c.u); got != c.v {
			t.Errorf("Unzigzag(%d) = %d, want %d", c.u, got, c.v)
		}
	}
}

func TestZigzagRoundtripProperty(t *testing.T) {
	f := func(v int64) bool { return Unzigzag(Zigzag(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWidth(t *testing.T) {
	cases := []struct {
		u uint64
		w int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {255, 8}, {256, 9},
		{math.MaxUint64, 64},
	}
	for _, c := range cases {
		if got := Width(c.u); got != c.w {
			t.Errorf("Width(%d) = %d, want %d", c.u, got, c.w)
		}
	}
}

func TestSignedWidth(t *testing.T) {
	cases := []struct {
		v int64
		w int
	}{
		{0, 0}, {-1, 1}, {1, 2}, {-2, 2}, {127, 8}, {-128, 8}, {128, 9},
		{math.MinInt64, 64}, {math.MaxInt64, 64},
	}
	for _, c := range cases {
		if got := SignedWidth(c.v); got != c.w {
			t.Errorf("SignedWidth(%d) = %d, want %d", c.v, got, c.w)
		}
	}
}

func TestMaxSignedWidth(t *testing.T) {
	if got := MaxSignedWidth(nil); got != 0 {
		t.Errorf("MaxSignedWidth(nil) = %d, want 0", got)
	}
	if got := MaxSignedWidth([]int64{0, 0, 0}); got != 0 {
		t.Errorf("MaxSignedWidth(zeros) = %d, want 0", got)
	}
	if got := MaxSignedWidth([]int64{1, -200, 3}); got != SignedWidth(-200) {
		t.Errorf("MaxSignedWidth = %d, want %d", got, SignedWidth(-200))
	}
}

func TestPackedLen(t *testing.T) {
	if got := PackedLen(10, 0); got != 0 {
		t.Errorf("PackedLen(10,0) = %d, want 0", got)
	}
	if got := PackedLen(3, 3); got != 2 {
		t.Errorf("PackedLen(3,3) = %d, want 2", got)
	}
	if got := PackedLen(8, 8); got != 8 {
		t.Errorf("PackedLen(8,8) = %d, want 8", got)
	}
}

func TestWriterReaderAllWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for width := 0; width <= 64; width++ {
		n := 100
		vals := make([]uint64, n)
		var mask uint64
		if width == 64 {
			mask = math.MaxUint64
		} else {
			mask = (1 << uint(width)) - 1
		}
		for i := range vals {
			vals[i] = rng.Uint64() & mask
		}
		buf := PackUnsigned(vals, width)
		if len(buf) != PackedLen(n, width) {
			t.Fatalf("width %d: len=%d want %d", width, len(buf), PackedLen(n, width))
		}
		got, err := UnpackUnsigned(buf, n, width)
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("width %d idx %d: got %d want %d", width, i, got[i], vals[i])
			}
		}
	}
}

func TestSignedRoundtripAllWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for width := 1; width <= 64; width++ {
		n := 64
		vals := make([]int64, n)
		for i := range vals {
			// generate a value fitting in `width` signed-zigzag bits
			var mask uint64
			if width == 64 {
				mask = math.MaxUint64
			} else {
				mask = (1 << uint(width)) - 1
			}
			vals[i] = Unzigzag(rng.Uint64() & mask)
		}
		buf := PackSigned(vals, width)
		got, err := UnpackSigned(buf, n, width)
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("width %d idx %d: got %d want %d", width, i, got[i], vals[i])
			}
		}
	}
}

func TestMixedWidthStream(t *testing.T) {
	w := NewWriter()
	w.Write(0b101, 3)
	w.WriteSigned(-7, 5)
	w.Write(0xDEADBEEF, 32)
	w.Write(1, 1)
	buf := w.Bytes()
	r := NewReader(buf)
	if u, _ := r.Read(3); u != 0b101 {
		t.Errorf("first = %b", u)
	}
	if v, _ := r.ReadSigned(5); v != -7 {
		t.Errorf("second = %d", v)
	}
	if u, _ := r.Read(32); u != 0xDEADBEEF {
		t.Errorf("third = %x", u)
	}
	if u, _ := r.Read(1); u != 1 {
		t.Errorf("fourth = %d", u)
	}
}

// TestWriterZerosMatchesZeroCodes writes codes with runs of zeros between
// them, once with Zeros per run and once as zero codes, into a
// preallocated buffer and a growing one: all four packings must be
// identical, so skipping zero words without storing them loses nothing.
func TestWriterZerosMatchesZeroCodes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for width := 1; width <= 64; width++ {
		var codes []uint64
		for len(codes) < 300 {
			for run := rng.Intn(3) * rng.Intn(200); run > 0; run-- {
				codes = append(codes, 0)
			}
			codes = append(codes, rng.Uint64()&maskFor(width))
		}
		var packs [][]byte
		for _, prealloc := range []bool{false, true} {
			for _, skip := range []bool{false, true} {
				w := NewWriter()
				if prealloc {
					into := NewWriterInto(make([]byte, PackedLen(len(codes), width)))
					w = &into
				}
				zeros := 0
				for _, c := range codes {
					if skip && c == 0 {
						zeros++
						continue
					}
					w.Zeros(zeros * width)
					zeros = 0
					w.Write(c, width)
				}
				w.Zeros(zeros * width)
				packs = append(packs, w.Bytes())
			}
		}
		want := PackUnsigned(codes, width)
		for i, p := range packs {
			if !bytes.Equal(p, want) {
				t.Fatalf("width %d: packing %d differs from PackUnsigned", width, i)
			}
		}
	}
}

func TestReaderOverrun(t *testing.T) {
	r := NewReader([]byte{0xFF})
	if _, err := r.Read(8); err != nil {
		t.Fatalf("first read: %v", err)
	}
	if _, err := r.Read(1); err == nil {
		t.Fatal("expected overrun error")
	}
}

func TestZeroWidthStream(t *testing.T) {
	buf := PackSigned([]int64{0, 0, 0, 0}, 0)
	if len(buf) != 0 {
		t.Fatalf("zero-width pack produced %d bytes", len(buf))
	}
	got, err := UnpackSigned(buf, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range got {
		if v != 0 {
			t.Fatalf("zero-width decode gave %d", v)
		}
	}
}

func TestRemaining(t *testing.T) {
	r := NewReader([]byte{0, 0})
	if r.Remaining() != 16 {
		t.Fatalf("remaining = %d", r.Remaining())
	}
	r.Read(5)
	if r.Remaining() != 11 {
		t.Fatalf("remaining = %d", r.Remaining())
	}
}

func TestPackSignedWidthFromMax(t *testing.T) {
	f := func(raw []int64) bool {
		if len(raw) == 0 {
			return true
		}
		w := MaxSignedWidth(raw)
		buf := PackSigned(raw, w)
		got, err := UnpackSigned(buf, len(raw), w)
		if err != nil {
			return false
		}
		for i := range raw {
			if got[i] != raw[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPackSigned(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	vals := make([]int64, 1<<16)
	for i := range vals {
		vals[i] = int64(rng.Intn(1024) - 512)
	}
	w := MaxSignedWidth(vals)
	b.SetBytes(int64(len(vals) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PackSigned(vals, w)
	}
}

func BenchmarkUnpackSigned(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	vals := make([]int64, 1<<16)
	for i := range vals {
		vals[i] = int64(rng.Intn(1024) - 512)
	}
	w := MaxSignedWidth(vals)
	buf := PackSigned(vals, w)
	b.SetBytes(int64(len(vals) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := UnpackSigned(buf, len(vals), w); err != nil {
			b.Fatal(err)
		}
	}
}

// referenceRead is the original bit-by-bit decoder, kept as the oracle
// for the word-at-a-time fast paths in Reader.Read and for the bulk
// unpack kernels (kernels.go).
func referenceRead(buf []byte, pos uint64, width int) uint64 {
	var u uint64
	got := 0
	for got < width {
		byteIdx := (pos + uint64(got)) / 8
		bitIdx := (pos + uint64(got)) % 8
		avail := 8 - int(bitIdx)
		take := width - got
		if take > avail {
			take = avail
		}
		chunk := uint64(buf[byteIdx]>>bitIdx) & ((1 << uint(take)) - 1)
		u |= chunk << uint(got)
		got += take
	}
	return u
}

func TestReadFastPathMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	buf := make([]byte, 64)
	rng.Read(buf)
	// every width at every alignment, including positions near the buffer
	// end where the fast path must hand off to the slow loop
	for width := 1; width <= 64; width++ {
		r := NewReader(buf)
		pos := uint64(0)
		for pos+uint64(width) <= uint64(len(buf))*8 {
			want := referenceRead(buf, pos, width)
			got, err := r.Read(width)
			if err != nil {
				t.Fatalf("width %d pos %d: %v", width, pos, err)
			}
			if got != want {
				t.Fatalf("width %d pos %d: got %x want %x", width, pos, got, want)
			}
			pos += uint64(width)
		}
	}
}

func TestReadMixedWidthsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	buf := make([]byte, 256)
	rng.Read(buf)
	for trial := 0; trial < 200; trial++ {
		r := NewReader(buf)
		pos := uint64(0)
		for {
			width := rng.Intn(65)
			if pos+uint64(width) > uint64(len(buf))*8 {
				break
			}
			want := referenceRead(buf, pos, width)
			got, err := r.Read(width)
			if err != nil {
				t.Fatalf("width %d pos %d: %v", width, pos, err)
			}
			if got != want {
				t.Fatalf("width %d pos %d: got %x want %x", width, pos, got, want)
			}
			pos += uint64(width)
		}
	}
}

func TestUnpackBulkShortBuffer(t *testing.T) {
	for _, width := range []int{3, 8, 16, 32, 64} {
		buf := PackUnsigned(make([]uint64, 4), width)
		// ask for more values than the packed bits can hold (width 3 needs
		// n=6: five 3-bit codes still fit in the padding of 2 bytes)
		n := 4 + (8+width-1)/width
		if _, err := UnpackUnsigned(buf, n, width); err == nil {
			t.Fatalf("width %d: expected short-buffer error", width)
		}
	}
}

// TestUnpackExhaustiveWidthTail crosses every width with every length
// up to 130, covering each unroll remainder and every tail shape near
// the end of the buffer — where the batched kernel switches from
// window loads to the anchored final-word load and the Reader falls
// back to bit-by-bit assembly — and checks both the batched kernel and
// the scalar reference against referenceRead at each bit position.
func TestUnpackExhaustiveWidthTail(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for width := 1; width <= 64; width++ {
		var mask uint64 = math.MaxUint64
		if width < 64 {
			mask = (1 << uint(width)) - 1
		}
		for n := 0; n <= 130; n++ {
			vals := make([]uint64, n)
			for i := range vals {
				vals[i] = rng.Uint64() & mask
			}
			buf := PackUnsigned(vals, width)
			for k, unpack := range map[string]func([]byte, int, int) ([]uint64, error){
				"batched": UnpackUnsigned,
				"scalar":  scalarUnsigned,
			} {
				got, err := unpack(buf, n, width)
				if err != nil {
					t.Fatalf("kernel %s width %d n %d: %v", k, width, n, err)
				}
				for i := 0; i < n; i++ {
					want := referenceRead(buf, uint64(i)*uint64(width), width)
					if got[i] != want {
						t.Fatalf("kernel %s width %d n %d idx %d: got %x want %x", k, width, n, i, got[i], want)
					}
				}
			}
		}
	}
}

func benchmarkUnpackWidth(b *testing.B, width int) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]uint64, 1<<16)
	var mask uint64 = math.MaxUint64
	if width < 64 {
		mask = (1 << uint(width)) - 1
	}
	for i := range vals {
		vals[i] = rng.Uint64() & mask
	}
	buf := PackUnsigned(vals, width)
	b.SetBytes(int64(len(vals) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := UnpackUnsigned(buf, len(vals), width); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnpackWidth7(b *testing.B)  { benchmarkUnpackWidth(b, 7) }
func BenchmarkUnpackWidth8(b *testing.B)  { benchmarkUnpackWidth(b, 8) }
func BenchmarkUnpackWidth16(b *testing.B) { benchmarkUnpackWidth(b, 16) }
func BenchmarkUnpackWidth32(b *testing.B) { benchmarkUnpackWidth(b, 32) }
func BenchmarkUnpackWidth64(b *testing.B) { benchmarkUnpackWidth(b, 64) }
