// Package chunk implements the paper's fixed-stride chunking (§II-A,
// §III-B.1): every version of an array is split into identical fixed-size
// storage containers by defining a fixed stride in each dimension. The
// stride is derived from a target chunk byte size: with C = bytes/elem
// cells per chunk, each chunk gets dim = ceil(C^(1/d)) cells per side
// (the paper's 2D example: 1 MB / 8 B = 128 Kcells, dim = ceil(√128K) =
// 358). Chunks are addressed by their origin coordinates, and chunk keys
// follow the paper's file naming, e.g. chunk-0-0-357-357.
//
// Because chunks have a regular structure there is a straightforward
// mapping from cell coordinates to chunks and no indexing is required:
// the chunk holding cell X is at origin floor(X/dim)*dim per dimension.
package chunk

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"arrayvers/internal/array"
)

// DefaultChunkBytes is the paper's default chunk size ("by default we use
// 10 Mbyte chunks", §III-B.1). Experiments override it to keep laptop
// scale.
const DefaultChunkBytes = 10 << 20

// Chunker maps between cell space and chunk space for one array shape.
type Chunker struct {
	shape []int64 // array extents
	side  []int64 // chunk stride per dimension
	count []int64 // chunks per dimension
}

// New derives the chunk stride from a target byte size, following the
// paper's sizing rule. Strides are clamped to the array extents.
func New(shape []int64, elemSize int, chunkBytes int64) (*Chunker, error) {
	if len(shape) == 0 {
		return nil, fmt.Errorf("chunk: empty shape")
	}
	for i, s := range shape {
		if s <= 0 {
			return nil, fmt.Errorf("chunk: dimension %d has extent %d", i, s)
		}
	}
	if elemSize <= 0 || chunkBytes <= 0 {
		return nil, fmt.Errorf("chunk: elemSize %d and chunkBytes %d must be positive", elemSize, chunkBytes)
	}
	cells := chunkBytes / int64(elemSize)
	if cells < 1 {
		cells = 1
	}
	d := float64(len(shape))
	dim := int64(math.Ceil(math.Pow(float64(cells), 1/d)))
	if dim < 1 {
		dim = 1
	}
	side := make([]int64, len(shape))
	for i, s := range shape {
		side[i] = dim
		if side[i] > s {
			side[i] = s
		}
	}
	return NewWithSide(shape, side)
}

// NewWithSide builds a Chunker with an explicit per-dimension stride.
func NewWithSide(shape, side []int64) (*Chunker, error) {
	if len(shape) == 0 || len(shape) != len(side) {
		return nil, fmt.Errorf("chunk: shape/side length mismatch")
	}
	for i := range shape {
		if shape[i] <= 0 || side[i] <= 0 {
			return nil, fmt.Errorf("chunk: non-positive extent or stride in dimension %d", i)
		}
	}
	c := &Chunker{shape: append([]int64(nil), shape...), side: append([]int64(nil), side...), count: make([]int64, len(shape))}
	for i := range shape {
		c.count[i] = (shape[i] + side[i] - 1) / side[i]
	}
	return c, nil
}

// Shape returns the array extents.
func (c *Chunker) Shape() []int64 { return c.shape }

// Side returns the chunk stride per dimension.
func (c *Chunker) Side() []int64 { return c.side }

// NDim returns the dimensionality.
func (c *Chunker) NDim() int { return len(c.shape) }

// CountPerDim returns the number of chunks along each dimension.
func (c *Chunker) CountPerDim() []int64 { return append([]int64(nil), c.count...) }

// Count returns the total number of chunks.
func (c *Chunker) Count() int64 {
	n := int64(1)
	for _, k := range c.CountPerDim() {
		n *= k
	}
	return n
}

// ChunkOf returns the origin of the chunk containing the given cell,
// i.e. floor(X/dim)*dim per dimension.
func (c *Chunker) ChunkOf(cell []int64) []int64 {
	origin := make([]int64, len(cell))
	for i := range cell {
		origin[i] = cell[i] / c.side[i] * c.side[i]
	}
	return origin
}

// Locate maps a cell, given by its row-major flat index in the whole
// array, to the chunk holding it — its row-major index among All() — and
// to the cell's row-major flat index within that chunk's (clipped) box.
// It divides once per dimension for the cell's coordinate (none for the
// outermost) and once for its chunk.
func (c *Chunker) Locate(flat int64) (chunk int, local int64) {
	var cidx, cstride, lstride int64 = 0, 1, 1
	for d := len(c.shape) - 1; d >= 0; d-- {
		x := flat
		if d > 0 {
			x, flat = flat%c.shape[d], flat/c.shape[d]
		}
		ci := x / c.side[d]
		lo := ci * c.side[d]
		cidx += ci * cstride
		local += (x - lo) * lstride
		cstride *= c.count[d]
		lstride *= min(c.side[d], c.shape[d]-lo)
	}
	return int(cidx), local
}

// Box returns the cell region covered by the chunk at the given origin,
// clipped to the array bounds (edge chunks may be smaller).
func (c *Chunker) Box(origin []int64) array.Box {
	hi := make([]int64, len(origin))
	for i := range origin {
		hi[i] = origin[i] + c.side[i]
		if hi[i] > c.shape[i] {
			hi[i] = c.shape[i]
		}
	}
	return array.NewBox(origin, hi)
}

// All returns the origins of every chunk in row-major order.
func (c *Chunker) All() [][]int64 {
	return c.Overlapping(array.BoxOf(c.shape))
}

// Overlapping returns the origins of every chunk that intersects the
// query box, in row-major order. This is the chunk-selection step of the
// select path (Fig. 1).
func (c *Chunker) Overlapping(q array.Box) [][]int64 {
	full := array.BoxOf(c.shape)
	q = q.Intersect(full)
	if q.Empty() {
		return nil
	}
	ndim := len(c.shape)
	lo := make([]int64, ndim)
	hi := make([]int64, ndim) // inclusive chunk-origin bounds
	for i := 0; i < ndim; i++ {
		lo[i] = q.Lo[i] / c.side[i] * c.side[i]
		hi[i] = (q.Hi[i] - 1) / c.side[i] * c.side[i]
	}
	var out [][]int64
	cur := append([]int64(nil), lo...)
	for {
		out = append(out, append([]int64(nil), cur...))
		i := ndim - 1
		for ; i >= 0; i-- {
			cur[i] += c.side[i]
			if cur[i] <= hi[i] {
				break
			}
			cur[i] = lo[i]
		}
		if i < 0 {
			return out
		}
	}
}

// Key renders a chunk origin as the paper's chunk file stem, e.g.
// "chunk-0-0-357-357" for a 2D chunk spanning [0,357]x[0,357]. The upper
// coordinates are the inclusive cell bounds of the (unclipped) stride.
func (c *Chunker) Key(origin []int64) string {
	var b strings.Builder
	b.WriteString("chunk")
	for _, o := range origin {
		fmt.Fprintf(&b, "-%d", o)
	}
	for i, o := range origin {
		fmt.Fprintf(&b, "-%d", o+c.side[i]-1)
	}
	return b.String()
}

// ParseKey recovers the chunk origin from a Key-formatted string.
func ParseKey(key string, ndim int) ([]int64, error) {
	parts := strings.Split(key, "-")
	if len(parts) != 1+2*ndim || parts[0] != "chunk" {
		return nil, fmt.Errorf("chunk: malformed key %q for %d dims", key, ndim)
	}
	origin := make([]int64, ndim)
	for i := 0; i < ndim; i++ {
		v, err := strconv.ParseInt(parts[1+i], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("chunk: malformed key %q: %v", key, err)
		}
		origin[i] = v
	}
	return origin, nil
}

// Extract slices the chunk at the given origin out of a full dense array.
func (c *Chunker) Extract(a *array.Dense, origin []int64) (*array.Dense, error) {
	return a.Slice(c.Box(origin))
}

// ExtractSparse slices the chunk at the given origin out of a full sparse
// array.
func (c *Chunker) ExtractSparse(a *array.Sparse, origin []int64) (*array.Sparse, error) {
	return a.Slice(c.Box(origin))
}

// Assemble writes a chunk's contents back into a full-size dense array.
func (c *Chunker) Assemble(dst *array.Dense, origin []int64, chunkData *array.Dense) error {
	return dst.WriteRegion(origin, chunkData)
}
