package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"arrayvers/internal/array"
	"arrayvers/internal/core"
)

// A KindChunked frame carries one dense plane as the chunks the store
// already holds, so the server never assembles the plane. Its payload:
//
//	offset 0: 1-byte dtype
//	offset 1: 1-byte ndim
//	offset 2: ndim × (lo, shape, stride), each a little-endian int64:
//	          the box in array coordinates and the chunk stride
//	then:     every tile's cells, tiles in row-major grid order, each
//	          tile's cells in row-major order
//
// A tile is one cell of the chunk grid (multiples of stride from the
// array origin) intersected with the box. The reader derives every
// tile's box from the header, so the tiles cover the box exactly once by
// construction and the frame carries no per-tile boxes.

// ErrMalformed is returned (wrapped) by a chunked plane frame whose
// header cannot describe a plane: an unknown dtype, no dimensions, a
// non-positive extent or stride, a box or cell count that overflows, or
// cells that do not fill the frame exactly.
var ErrMalformed = errors.New("wire: malformed chunked plane")

// chunkedDimLen is the header bytes per dimension: lo, shape, stride.
const chunkedDimLen = 24

// maxCoord bounds every header coordinate, so box ends and grid origins
// (lo + shape, origin + stride) stay far from int64 overflow.
const maxCoord = 1 << 61

// forTiles walks the tiles that box cuts from the chunk grid of stride
// side, in row-major grid order. fn gets the tile's index, its grid
// cell's origin and the tile; both are reused between calls.
func forTiles(box array.Box, side []int64, fn func(i int, origin []int64, tile array.Box) error) error {
	nd := box.NDim()
	origin := make([]int64, nd)
	tile := array.Box{Lo: make([]int64, nd), Hi: make([]int64, nd)}
	for d := range origin {
		origin[d] = box.Lo[d] / side[d] * side[d]
	}
	for i := 0; ; i++ {
		for d := range origin {
			tile.Lo[d] = max(origin[d], box.Lo[d])
			tile.Hi[d] = min(origin[d]+side[d], box.Hi[d])
		}
		if err := fn(i, origin, tile); err != nil {
			return err
		}
		d := nd - 1
		for ; d >= 0; d-- {
			if origin[d] += side[d]; origin[d] < box.Hi[d] {
				break
			}
			origin[d] = box.Lo[d] / side[d] * side[d]
		}
		if d < 0 {
			return nil
		}
	}
}

// runLen is how region's cells lie in the row-major buffer of an array
// of shape outer: in runs of n contiguous cells, one per cell of
// region's dimensions before k, where every dimension after k spans
// outer in full.
func runLen(outer []int64, region array.Box) (k int, n int64) {
	k = len(outer) - 1
	n = region.Hi[k] - region.Lo[k]
	for k > 0 && region.Hi[k]-region.Lo[k] == outer[k] {
		k--
		n *= region.Hi[k] - region.Lo[k]
	}
	return k, n
}

// flat is the row-major index of cell in an array of shape outer whose
// first cell is at origin.
func flat(outer, origin, cell []int64) (at int64) {
	for d := range outer {
		at = at*outer[d] + cell[d] - origin[d]
	}
	return at
}

// runs calls fn with the first flat cell and the length of each run of
// region (runLen) in an array of shape outer at origin, in row-major
// order. cur is scratch of len(outer).
func runs(outer, origin []int64, region array.Box, cur []int64, fn func(at, n int64) error) error {
	k, n := runLen(outer, region)
	copy(cur, region.Lo)
	for {
		if err := fn(flat(outer, origin, cur), n); err != nil {
			return err
		}
		d := k - 1
		for ; d >= 0; d-- {
			if cur[d]++; cur[d] < region.Hi[d] {
				break
			}
			cur[d] = region.Lo[d]
		}
		if d < 0 {
			return nil
		}
	}
}

// WriteChunked frames one dense plane of a read as its chunks
// (KindChunked). A tile that is one contiguous span of its chunk — a
// chunk that lies wholly inside the box above all — goes out as that
// span of the chunk's own buffer, with no copy; any other tile goes out
// as its overlap rows, gathered into one tile-sized scratch buffer per
// call. It reports each tile's write to p.ObserveMaterialize and returns
// the cell bytes written straight from a chunk buffer. p.Chunks must be
// the chunks p.Box overlaps on the grid of stride p.Stride, in row-major
// grid order (Store.ReadChunked), and must not change until it returns.
func WriteChunked(w io.Writer, p core.ChunkedPlane) (int64, error) {
	nd := p.Box.NDim()
	if nd == 0 || nd > 255 || len(p.Stride) != nd || len(p.Chunks) == 0 || p.Box.Empty() {
		return 0, fmt.Errorf("wire: cannot frame a chunked plane of %d dims, %d strides and %d chunks", nd, len(p.Stride), len(p.Chunks))
	}
	for d, side := range p.Stride {
		if side <= 0 || p.Box.Lo[d] < 0 {
			return 0, fmt.Errorf("wire: cannot frame box %v on a grid of stride %v", p.Box, p.Stride)
		}
	}
	dt := p.Chunks[0].DType()
	elem := int64(dt.Size())
	// check every chunk against its tile before the first byte goes out
	tiles := 0
	err := forTiles(p.Box, p.Stride, func(i int, origin []int64, tile array.Box) error {
		if tiles++; i >= len(p.Chunks) {
			return nil
		}
		c := p.Chunks[i]
		if c.DType() != dt || c.NDim() != nd {
			return fmt.Errorf("wire: chunk %d is %v of %d dims, plane is %v of %d", i, c.DType(), c.NDim(), dt, nd)
		}
		for d, ext := range c.Shape() {
			if tile.Hi[d] > origin[d]+ext || ext > p.Stride[d] {
				return fmt.Errorf("wire: chunk %d of shape %v does not hold tile %v", i, c.Shape(), tile)
			}
		}
		return nil
	})
	if err == nil && tiles != len(p.Chunks) {
		err = fmt.Errorf("wire: chunked plane has %d chunks, its box cuts %d tiles", len(p.Chunks), tiles)
	}
	if err != nil {
		return 0, err
	}
	hdr := make([]byte, headerLen, headerLen+2+chunkedDimLen*nd)
	copy(hdr[:4], magic[:])
	hdr[4] = byte(KindChunked)
	binary.LittleEndian.PutUint64(hdr[5:], uint64(chunkedLen(p)-headerLen))
	hdr = append(hdr, byte(dt), byte(nd))
	for d := 0; d < nd; d++ {
		hdr = binary.LittleEndian.AppendUint64(hdr, uint64(p.Box.Lo[d]))
		hdr = binary.LittleEndian.AppendUint64(hdr, uint64(p.Box.Hi[d]-p.Box.Lo[d]))
		hdr = binary.LittleEndian.AppendUint64(hdr, uint64(p.Stride[d]))
	}
	if _, err := w.Write(hdr); err != nil {
		return 0, fmt.Errorf("wire: write chunked plane header: %w", err)
	}
	var direct int64
	var scratch []byte
	cur := make([]int64, nd)
	err = forTiles(p.Box, p.Stride, func(i int, origin []int64, tile array.Box) error {
		t0 := time.Now()
		c := p.Chunks[i]
		data := c.Bytes()
		var span []byte
		if _, n := runLen(c.Shape(), tile); n == tile.NumCells() {
			at := flat(c.Shape(), origin, tile.Lo)
			span = data[at*elem : (at+n)*elem]
			direct += int64(len(span))
		} else {
			if scratch == nil {
				scratch = make([]byte, 0, tileBytes(p.Box, p.Stride, elem))
			}
			scratch = scratch[:0]
			_ = runs(c.Shape(), origin, tile, cur, func(at, n int64) error {
				scratch = append(scratch, data[at*elem:(at+n)*elem]...)
				return nil
			})
			span = scratch
		}
		if _, err := w.Write(span); err != nil {
			return fmt.Errorf("wire: write chunked plane tile %d: %w", i, err)
		}
		p.ObserveMaterialize(time.Since(t0), int64(len(span)))
		return nil
	})
	return direct, err
}

// ChunkedLen is the length of the frames WriteChunked writes for
// planes, so a reply of dense planes can announce its length before its
// first byte. ok is false when a plane is sparse: its frame's length is
// known only once it is marshalled.
func ChunkedLen(planes []core.ChunkedPlane) (n int64, ok bool) {
	for _, p := range planes {
		if len(p.Chunks) == 0 {
			return 0, false
		}
		n += chunkedLen(p)
	}
	return n, true
}

// chunkedLen is the length of p's KindChunked frame; p has a chunk.
func chunkedLen(p core.ChunkedPlane) int64 {
	return headerLen + 2 + chunkedDimLen*int64(p.Box.NDim()) + p.Box.NumCells()*int64(p.Chunks[0].DType().Size())
}

// tileBytes is the largest tile box can cut from a grid of stride side:
// in each dimension, the lesser of the stride and the box's extent.
func tileBytes(box array.Box, side []int64, elem int64) int64 {
	n := elem
	for d := range side {
		n *= min(side[d], box.Hi[d]-box.Lo[d])
	}
	return n
}

// maxTileScratch caps the buffer ReadPlane reads a chunked tile through. A
// tile larger than this is read in batches of whole runs, and a run
// larger than this straight into place, so no reused buffer grows past
// it whatever the chunk size.
const maxTileScratch = 1 << 20

// tileScratch holds idle tile buffers of readChunked, each at most
// maxTileScratch, so frames and replies reuse them. It is a bounded free
// list, not a sync.Pool: a collection empties a pool, and a client that
// allocates a plane per read collects every few reads, so a pool would
// re-make its buffer on a share of reads that varies with GC and
// scheduling. Four buffers serve a client's few concurrent reads and pin
// at most 4 MiB. A reader that finds the list empty allocates its own
// buffer, and one that finds it full drops its buffer.
var tileScratch = make(chan []byte, 4)

// chunkedHeader is a KindChunked frame's header, checked against the
// frame's length.
type chunkedHeader struct {
	dt    array.DataType
	box   array.Box // lo and hi in array coordinates
	shape []int64   // the box's extents: the plane's shape
	side  []int64   // the chunk stride
}

// readChunkedHeader reads and checks the header of a KindChunked frame
// of n payload bytes: on success the cells that follow fill the frame
// exactly.
func readChunkedHeader(r io.Reader, n uint64) (chunkedHeader, error) {
	var pre [2]byte
	if n < uint64(len(pre)) {
		return chunkedHeader{}, fmt.Errorf("%w: %d-byte frame", ErrMalformed, n)
	}
	if err := readFull(r, pre[:], "chunked plane header"); err != nil {
		return chunkedHeader{}, err
	}
	dt, nd := array.DataType(pre[0]), int(pre[1])
	if !dt.Valid() || nd == 0 {
		return chunkedHeader{}, fmt.Errorf("%w: dtype %d, %d dims", ErrMalformed, pre[0], nd)
	}
	hdrLen := uint64(len(pre) + chunkedDimLen*nd)
	if n < hdrLen {
		return chunkedHeader{}, fmt.Errorf("%w: %d dims need %d header bytes, frame has %d", ErrMalformed, nd, hdrLen, n)
	}
	hdr := make([]byte, chunkedDimLen*nd)
	if err := readFull(r, hdr, "chunked plane header"); err != nil {
		return chunkedHeader{}, err
	}
	h := chunkedHeader{
		dt:    dt,
		box:   array.Box{Lo: make([]int64, nd), Hi: make([]int64, nd)},
		shape: make([]int64, nd),
		side:  make([]int64, nd),
	}
	cells := uint64(1)
	for d := 0; d < nd; d++ {
		lo := binary.LittleEndian.Uint64(hdr[chunkedDimLen*d:])
		ext := binary.LittleEndian.Uint64(hdr[chunkedDimLen*d+8:])
		stride := binary.LittleEndian.Uint64(hdr[chunkedDimLen*d+16:])
		if ext == 0 || stride == 0 || lo >= maxCoord || ext >= maxCoord || stride >= maxCoord {
			return chunkedHeader{}, fmt.Errorf("%w: dimension %d has lo %d, extent %d, stride %d", ErrMalformed, d, lo, ext, stride)
		}
		if cells > n/ext {
			return chunkedHeader{}, fmt.Errorf("%w: %d-cell box exceeds its %d-byte frame", ErrMalformed, cells, n)
		}
		cells *= ext
		h.box.Lo[d], h.box.Hi[d] = int64(lo), int64(lo+ext)
		h.shape[d], h.side[d] = int64(ext), int64(stride)
	}
	if cells > (n-hdrLen)/uint64(dt.Size()) || hdrLen+cells*uint64(dt.Size()) != n {
		return chunkedHeader{}, fmt.Errorf("%w: %d cells of %d bytes do not fill a %d-byte frame", ErrMalformed, cells, dt.Size(), n)
	}
	return h, nil
}

// readChunked reads the payload of a KindChunked frame of n bytes into
// one freshly allocated plane. Every header check runs before the
// allocation, which the frame length (already bounded by max) sizes
// exactly. Each tile arrives contiguous in the frame and is read with
// one read when it fits limit (maxTileScratch but in tests). A tile
// contiguous in the plane (its row-major runs are one) is read straight
// into place. Any other tile is read whole into a tileScratch buffer and
// its runs copied into place, one copy per byte; a tile over limit goes
// in batches of whole runs, and a run over limit straight into place.
func readChunked(r io.Reader, n uint64, limit int64) (*array.Dense, error) {
	h, err := readChunkedHeader(r, n)
	if err != nil {
		return nil, err
	}
	out, err := array.NewDense(h.dt, h.shape)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	data, elem := out.Bytes(), int64(h.dt.Size())
	need := min(tileBytes(h.box, h.side, elem), limit)
	var buf []byte
	defer func() {
		if buf != nil {
			select {
			case tileScratch <- buf:
			default:
			}
		}
	}()
	cur := make([]int64, len(h.shape))
	err = forTiles(h.box, h.side, func(_ int, _ []int64, tile array.Box) error {
		cells := tile.NumCells()
		_, run := runLen(h.shape, tile)
		if run == cells || run*elem > limit {
			return runs(h.shape, h.box.Lo, tile, cur, func(at, n int64) error {
				return readFull(r, data[at*elem:(at+n)*elem], "chunked plane tile")
			})
		}
		if buf == nil {
			select {
			case buf = <-tileScratch:
			default:
			}
			if int64(cap(buf)) < need {
				buf = make([]byte, need)
			}
		}
		batch := buf[:need/(run*elem)*(run*elem)]
		left := cells * elem
		var next []byte // the read cells of the batch not yet copied out
		return runs(h.shape, h.box.Lo, tile, cur, func(at, n int64) error {
			if len(next) == 0 {
				next = batch[:min(int64(len(batch)), left)]
				if err := readFull(r, next, "chunked plane tile"); err != nil {
					return err
				}
				left -= int64(len(next))
			}
			next = next[copy(data[at*elem:(at+n)*elem], next):]
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// readFull fills buf from r, reporting a short read as a truncated frame.
func readFull(r io.Reader, buf []byte, what string) error {
	if _, err := io.ReadFull(r, buf); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
			return fmt.Errorf("wire: truncated %s: %w", what, io.ErrUnexpectedEOF)
		}
		return fmt.Errorf("wire: read %s: %w", what, err)
	}
	return nil
}
