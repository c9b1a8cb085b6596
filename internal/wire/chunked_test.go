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
	"sync"
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

// tileLimits are the tile-buffer sizes the differential tests read
// through: ReadPlane's own, one so small that every run goes straight
// into place, and a few that split tiles into batches of whole runs.
var tileLimits = []int64{maxTileScratch, 1, 24, 100, 4096}

// errClass is the typed error a chunked read failed with, errOther for
// an untyped one, nil for none.
func errClass(err error) error {
	if err == nil {
		return nil
	}
	for _, c := range []error{ErrMalformed, io.ErrUnexpectedEOF, ErrFrameTooLarge, ErrBadMagic, ErrUnexpectedKind} {
		if errors.Is(err, c) {
			return c
		}
	}
	return errOther
}

var errOther = errors.New("untyped error")

// readReply reads frames KindChunked frames from data with read, and
// fails on bytes after the last.
func readReply(data []byte, frames int, read func(io.Reader, uint64) (*array.Dense, error)) ([]*array.Dense, error) {
	r := bytes.NewReader(data)
	out := make([]*array.Dense, frames)
	for i := range out {
		kind, n, err := readHeader(r, 1<<30)
		if err != nil {
			return nil, err
		}
		if kind != KindChunked {
			return nil, fmt.Errorf("%w: kind %d", ErrUnexpectedKind, kind)
		}
		if out[i], err = read(r, n); err != nil {
			return nil, err
		}
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%d trailing bytes", r.Len())
	}
	return out, nil
}

// checkAgainstOracle reads data, a reply of frames KindChunked frames,
// with the per-run oracle, with ReadPlanes, and with readChunked at
// every tile limit: all must fail with the same error class or return equal
// planes. It returns the oracle's error.
func checkAgainstOracle(t *testing.T, data []byte, frames int) error {
	t.Helper()
	want, werr := readReply(data, frames, oracleReadChunked)
	got, gerr := ReadPlanes(bytes.NewReader(data), frames, 1<<30)
	if errClass(gerr) != errClass(werr) {
		t.Fatalf("ReadPlanes: err = %v, oracle's = %v", gerr, werr)
	}
	for i := range got {
		if !got[i].Dense.Equal(want[i]) {
			t.Fatalf("ReadPlanes: frame %d differs from the oracle's plane", i)
		}
	}
	for _, limit := range tileLimits {
		got, err := readReply(data, frames, func(r io.Reader, n uint64) (*array.Dense, error) {
			return readChunked(r, n, limit)
		})
		if errClass(err) != errClass(werr) {
			t.Fatalf("limit %d: err = %v, oracle's = %v", limit, err, werr)
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Fatalf("limit %d: frame %d differs from the oracle's plane", limit, i)
			}
		}
	}
	return werr
}

// randPlane is a plane of shape with random cells.
func randPlane(rng *rand.Rand, dt array.DataType, shape []int64) *array.Dense {
	d := array.MustDense(dt, shape)
	rng.Read(d.Bytes())
	return d
}

// TestReadChunkedMatchesOracle is the tile reader's differential test:
// for every dtype, 1-, 2- and 3-D planes whose strides leave ragged edge
// tiles, full boxes and random boxes off the grid, and strides smaller
// and larger than the box, ReadPlanes and readChunked at every tile
// limit read what the per-run oracle reads, frame by frame and as one
// multi-frame reply; a frame cut at every byte fails with the oracle's
// error class.
func TestReadChunkedMatchesOracle(t *testing.T) {
	grids := []struct {
		shape, side []int64
	}{
		{[]int64{37}, []int64{8}},
		{[]int64{37}, []int64{64}},
		{[]int64{23, 37}, []int64{5, 7}},
		{[]int64{23, 37}, []int64{2, 1}},
		{[]int64{23, 37}, []int64{64, 64}},
		{[]int64{9, 10, 11}, []int64{4, 3, 5}},
		{[]int64{9, 10, 11}, []int64{2, 16, 3}},
	}
	rng := rand.New(rand.NewSource(54))
	for dt := array.Int8; dt.Valid(); dt++ {
		for _, g := range grids {
			d := randPlane(rng, dt, g.shape)
			boxes := []array.Box{array.BoxOf(g.shape)}
			for range 6 {
				lo, hi := make([]int64, len(g.shape)), make([]int64, len(g.shape))
				for i, n := range g.shape {
					lo[i] = rng.Int63n(n)
					hi[i] = lo[i] + 1 + rng.Int63n(n-lo[i])
				}
				boxes = append(boxes, array.NewBox(lo, hi))
			}
			var reply bytes.Buffer
			for _, box := range boxes {
				var one bytes.Buffer
				if _, err := WriteChunked(&one, cut(d, box, g.side)); err != nil {
					t.Fatal(err)
				}
				if err := checkAgainstOracle(t, one.Bytes(), 1); err != nil {
					t.Fatalf("%v %v stride %v box %v: %v", dt, g.shape, g.side, box, err)
				}
				reply.Write(one.Bytes())
			}
			if err := checkAgainstOracle(t, reply.Bytes(), len(boxes)); err != nil {
				t.Fatalf("%v %v stride %v, %d-frame reply: %v", dt, g.shape, g.side, len(boxes), err)
			}
		}
	}
	// a small ragged frame cut at every byte
	var buf bytes.Buffer
	d := randPlane(rng, array.Int16, []int64{6, 7})
	if _, err := WriteChunked(&buf, cut(d, array.NewBox([]int64{1, 0}, []int64{6, 7}), []int64{4, 3})); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	for n := range len(frame) {
		if err := checkAgainstOracle(t, frame[:n], 1); err == nil {
			t.Fatalf("frame cut to %d of %d bytes read without error", n, len(frame))
		}
	}
}

// TestReadChunkedLargeTiles reads, at ReadPlane's own tile limit, a
// frame whose tiles exceed the tile buffer: a 768² int32 plane at a
// 640² stride (a 1.6 MB tile read in batches of whole rows) and a
// 2×300 000 plane whose first tile's rows are each over the buffer
// (read straight into place).
func TestReadChunkedLargeTiles(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for _, g := range []struct{ shape, side []int64 }{
		{[]int64{768, 768}, []int64{640, 640}},
		{[]int64{2, 300_000}, []int64{2, 290_000}},
	} {
		d := randPlane(rng, array.Int32, g.shape)
		var buf bytes.Buffer
		if _, err := WriteChunked(&buf, cut(d, array.BoxOf(g.shape), g.side)); err != nil {
			t.Fatal(err)
		}
		if tileBytes(array.BoxOf(g.shape), g.side, 4) <= maxTileScratch {
			t.Fatalf("%v at stride %v: no tile exceeds the tile buffer", g.shape, g.side)
		}
		pl, err := ReadPlane(bytes.NewReader(buf.Bytes()), 1<<30)
		if err != nil || !pl.Dense.Equal(d) {
			t.Fatalf("%v at stride %v: %v, or the plane differs", g.shape, g.side, err)
		}
		if err := checkAgainstOracle(t, buf.Bytes(), 1); err != nil {
			t.Fatal(err)
		}
	}
}

// countingReader counts the Read calls that reach it.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// served512 is a 512×512 int32 plane with 256 KiB chunks (a 256×256
// stride), as the daemon serves it, and the boxes TestReadChunkedReads
// and TestReadChunkedAllocs read: the whole plane, a 128×128 box that
// straddles four chunks, and one inside a single chunk.
func served512() (*array.Dense, []int64, []array.Box) {
	d := randPlane(rand.New(rand.NewSource(54)), array.Int32, []int64{512, 512})
	return d, []int64{256, 256}, []array.Box{
		array.BoxOf(d.Shape()),
		array.NewBox([]int64{192, 192}, []int64{320, 320}),
		array.NewBox([]int64{10, 300}, []int64{90, 400}),
	}
}

// TestReadChunkedReads is the read-count gate: ReadPlane of a chunked
// frame from a reader that returns everything asked for makes three
// header reads (frame header, dtype and ndim, dimensions) and one read
// per tile, however many rows the tile has.
func TestReadChunkedReads(t *testing.T) {
	d, side, boxes := served512()
	for _, box := range boxes {
		var buf bytes.Buffer
		if _, err := WriteChunked(&buf, cut(d, box, side)); err != nil {
			t.Fatal(err)
		}
		tiles := 0
		_ = forTiles(box, side, func(int, []int64, array.Box) error { tiles++; return nil })
		cr := &countingReader{r: &buf}
		pl, err := ReadPlane(cr, 0)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := d.Slice(box); !pl.Dense.Equal(want) {
			t.Fatalf("box %v: the plane differs from the slice", box)
		}
		if cr.reads > 3+tiles {
			t.Errorf("box %v: %d reads, want at most 3 header reads + %d tiles", box, cr.reads, tiles)
		}
	}
}

// TestReadChunkedAllocs is the read side's allocation gate: once a
// tile buffer is on the free list, reading each served512 frame
// allocates its plane plus less than 16 KiB, however often the
// collector runs in between.
func TestReadChunkedAllocs(t *testing.T) {
	const reps = 16
	d, side, boxes := served512()
	for _, box := range boxes {
		var buf bytes.Buffer
		if _, err := WriteChunked(&buf, cut(d, box, side)); err != nil {
			t.Fatal(err)
		}
		frame := buf.Bytes()
		r := bytes.NewReader(frame)
		read := func() {
			r.Reset(frame)
			if _, err := ReadPlane(r, 0); err != nil {
				t.Fatal(err)
			}
		}
		read()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range reps {
			runtime.GC() // two collections empty a sync.Pool
			runtime.GC()
			read()
		}
		runtime.ReadMemStats(&after)
		plane := uint64(box.NumCells() * 4)
		if per := (after.TotalAlloc - before.TotalAlloc) / reps; per >= plane+16<<10 {
			t.Errorf("box %v: a read allocates %d bytes, want its %d-byte plane + < 16 KiB", box, per, plane)
		}
	}
}

// TestReadChunkedConcurrent reads the served512 frames from several
// goroutines at once, so tile buffers pass between readers through the
// free list; a buffer handed to two readers at once would corrupt a
// plane (and trip -race).
func TestReadChunkedConcurrent(t *testing.T) {
	d, side, boxes := served512()
	frames := make([][]byte, len(boxes))
	wants := make([]*array.Dense, len(boxes))
	for i, box := range boxes {
		var buf bytes.Buffer
		if _, err := WriteChunked(&buf, cut(d, box, side)); err != nil {
			t.Fatal(err)
		}
		frames[i] = buf.Bytes()
		wants[i], _ = d.Slice(box)
	}
	const readers, reads = 6, 12
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for g := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range reads {
				k := (g + i) % len(frames)
				pl, err := ReadPlane(bytes.NewReader(frames[k]), 0)
				if err == nil && !pl.Dense.Equal(wants[k]) {
					err = fmt.Errorf("box %v: the plane differs from the slice", boxes[k])
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
