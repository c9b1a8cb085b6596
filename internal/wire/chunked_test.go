package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"arrayvers/internal/array"
	"arrayvers/internal/core"
)

// cut builds the ChunkedPlane a read of box would resolve from d, an
// array's whole plane chunked with stride side: the chunks box
// overlaps, in row-major grid order, each clipped to d.
func cut(d *array.Dense, box array.Box, side []int64) core.ChunkedPlane {
	p := core.ChunkedPlane{Box: box, Stride: side}
	full := array.BoxOf(d.Shape())
	_ = forTiles(box, side, func(_ int, origin []int64, _ array.Box) error {
		hi := make([]int64, len(origin))
		for i := range hi {
			hi[i] = origin[i] + side[i]
		}
		c, err := d.Slice(array.NewBox(origin, hi).Intersect(full))
		if err != nil {
			panic(err)
		}
		p.Chunks = append(p.Chunks, c)
		return nil
	})
	return p
}

// TestChunkedRoundTrip is the frame's property: for 1-, 2- and 3-D
// arrays of 1-, 2-, 4- and 8-byte cells whose chunk strides do not
// divide their extents (so edge chunks are clipped), and for random
// boxes off the chunk grid, ReadPlane of what WriteChunked sends for
// Store.ReadChunked's chunks equals Store.Read's plane, the store's own
// assembly of the same chunks.
func TestChunkedRoundTrip(t *testing.T) {
	cases := []struct {
		dt    array.DataType
		shape []int64
		chunk int64 // ChunkBytes
	}{
		{array.Int8, []int64{100}, 16},             // stride 16
		{array.UInt16, []int64{23, 37}, 50},        // stride 5×5
		{array.Int32, []int64{9, 10, 11}, 108},     // stride 3×3×3
		{array.Float64, []int64{17, 13}, 128},      // stride 4×4
		{array.Int64, []int64{5, 6, 7}, 8 * 64},    // stride 4×4×4
		{array.Float32, []int64{4, 300}, 4 * 1024}, // stride 32, clamped to 4 rows
	}
	rng := rand.New(rand.NewSource(49))
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%v%v", tc.dt, tc.shape), func(t *testing.T) {
			opts := core.DefaultOptions()
			opts.ChunkBytes = tc.chunk
			opts.CacheBytes = 1 << 20
			s, err := core.Open(t.TempDir(), opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			sch := array.Schema{Name: "A", Attrs: []array.Attribute{{Name: "V", Type: tc.dt}}}
			for i, n := range tc.shape {
				sch.Dims = append(sch.Dims, array.Dimension{Name: fmt.Sprintf("D%d", i), Lo: 0, Hi: n - 1})
			}
			if err := s.CreateArray(sch); err != nil {
				t.Fatal(err)
			}
			d := array.MustDense(tc.dt, tc.shape)
			for i := int64(0); i < d.NumCells(); i++ {
				d.SetBits(i, rng.Int63())
			}
			if _, err := s.Insert("A", core.DensePayload(d)); err != nil {
				t.Fatal(err)
			}
			boxes := []array.Box{array.BoxOf(tc.shape)}
			for range 40 {
				lo, hi := make([]int64, len(tc.shape)), make([]int64, len(tc.shape))
				for i, n := range tc.shape {
					lo[i] = rng.Int63n(n)
					hi[i] = lo[i] + 1 + rng.Int63n(n-lo[i])
				}
				boxes = append(boxes, array.NewBox(lo, hi))
			}
			for _, box := range boxes {
				q := core.ReadQuery{Array: "A", IDs: []int{1}, Box: box}
				want, err := s.Read(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				cps, err := s.ReadChunked(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if _, err := WriteChunked(&buf, cps[0]); err != nil {
					t.Fatal(err)
				}
				got, err := ReadPlane(&buf, 0)
				if err != nil {
					t.Fatalf("box %v: %v", box, err)
				}
				if !got.Dense.Equal(want[0].Dense) || buf.Len() != 0 {
					t.Fatalf("box %v: chunked reply differs from the assembled plane (%d bytes left)", box, buf.Len())
				}
			}
		})
	}
}

// chunkedFrame builds a KindChunked frame by hand: dtype, per-dimension
// (lo, shape, stride), then body, under a frame header claiming n
// payload bytes (the true length when n < 0).
func chunkedFrame(dt array.DataType, dims [][3]uint64, body []byte, n int64) []byte {
	p := []byte{byte(dt), byte(len(dims))}
	for _, d := range dims {
		for _, v := range d {
			p = binary.LittleEndian.AppendUint64(p, v)
		}
	}
	p = append(p, body...)
	if n < 0 {
		n = int64(len(p))
	}
	f := append([]byte("AVF1"), byte(KindChunked))
	f = binary.LittleEndian.AppendUint64(f, uint64(n))
	return append(f, p...)
}

// hostileChunked are chunked frames whose header or body is wrong, with
// the typed error each must fail with.
func hostileChunked() []struct {
	name  string
	frame []byte
	want  error
} {
	cells := make([]byte, 4*6)
	return []struct {
		name  string
		frame []byte
		want  error
	}{
		{"zero stride", chunkedFrame(array.Int32, [][3]uint64{{0, 2, 1}, {0, 3, 0}}, cells, -1), ErrMalformed},
		{"zero extent", chunkedFrame(array.Int32, [][3]uint64{{0, 0, 1}}, nil, -1), ErrMalformed},
		{"no dims", chunkedFrame(array.Int32, nil, cells, -1), ErrMalformed},
		{"bad dtype", chunkedFrame(array.DataType(99), [][3]uint64{{0, 6, 2}}, cells, -1), ErrMalformed},
		{"shape product overflows", chunkedFrame(array.Int8, [][3]uint64{{0, 1 << 40, 1}, {0, 1 << 40, 1}}, cells, -1), ErrMalformed},
		{"stride overflows", chunkedFrame(array.Int32, [][3]uint64{{0, 6, 1 << 63}}, cells, -1), ErrMalformed},
		{"lo overflows", chunkedFrame(array.Int32, [][3]uint64{{1<<63 - 2, 6, 2}}, cells, -1), ErrMalformed},
		{"cells beyond max", chunkedFrame(array.Int64, [][3]uint64{{0, 1 << 20, 1 << 10}}, nil, 2+24+8<<20), ErrFrameTooLarge},
		{"cells beyond frame", chunkedFrame(array.Int32, [][3]uint64{{0, 1 << 18, 1 << 10}}, cells, -1), ErrMalformed},
		{"truncated tile", chunkedFrame(array.Int32, [][3]uint64{{1, 2, 2}, {0, 3, 2}}, cells, -1)[:13+2+48+10], io.ErrUnexpectedEOF},
		{"truncated header", chunkedFrame(array.Int32, [][3]uint64{{0, 6, 2}}, cells, -1)[:13+2+10], io.ErrUnexpectedEOF},
	}
}

// TestChunkedHostileHeaders feeds each hostile chunked frame to
// ReadPlane with a 1 MiB limit: each fails with its typed error and
// allocates no more than the limit.
func TestChunkedHostileHeaders(t *testing.T) {
	const max = 1 << 20
	for _, h := range hostileChunked() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadPlane(bytes.NewReader(h.frame), max)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, h.want) {
			t.Errorf("%s: err = %v, want %v", h.name, err, h.want)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > max {
			t.Errorf("%s: allocated %d bytes, limit %d", h.name, got, max)
		}
	}
	// the same frame, well formed, decodes
	cells := make([]byte, 4*6)
	for i := range cells {
		cells[i] = byte(i)
	}
	pl, err := ReadPlane(bytes.NewReader(chunkedFrame(array.Int32, [][3]uint64{{1, 2, 2}, {0, 3, 2}}, cells, -1)), max)
	if err != nil || pl.Dense == nil || pl.Dense.NumCells() != 6 {
		t.Fatalf("well-formed chunked frame: %v", err)
	}
}
