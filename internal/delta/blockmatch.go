package delta

import (
	"encoding/binary"
	"fmt"
	"math"

	"arrayvers/internal/array"
)

// The MPEG-2-like matcher (§V-A): "the target array is broken up into
// 16x16 chunks and each chunk is compared to every possible region in a
// 16-cell radius around its origin, in case the image has shifted in one
// direction." The per-block motion vectors are stored followed by a
// hybrid-encoded residual of the whole array. 2D arrays only;
// forward-only (motion compensation is not invertible).

// DefaultBlockSize and DefaultSearchRadius reproduce the paper's
// parameters.
const (
	DefaultBlockSize    = 16
	DefaultSearchRadius = 16
)

// EncodeBlockMatchRadius is Encode(BlockMatch, ...) with an explicit
// block size and search radius; the cost of the matcher is "roughly
// proportional to the number of comparisons it is doing" (§V-A), so
// benchmarks expose the radius as a scale knob.
func EncodeBlockMatchRadius(target, base *array.Dense, blockSize, radius int) ([]byte, error) {
	if err := CheckPair(target, base); err != nil {
		return nil, err
	}
	return encodeBlockMatch(target, base, blockSize, radius)
}

func encodeBlockMatch(target, base *array.Dense, blockSize, radius int) ([]byte, error) {
	if target.NDim() != 2 {
		return nil, fmt.Errorf("delta: blockmatch requires a 2D array, got %dD", target.NDim())
	}
	h, w := target.Shape()[0], target.Shape()[1]
	dt := target.DType()
	bh := int((h + int64(blockSize) - 1) / int64(blockSize))
	bw := int((w + int64(blockSize) - 1) / int64(blockSize))
	vectors := make([]int8, 0, bh*bw*2)
	// predicted array built block by block from the best-matching base
	// region
	pred, err := array.NewDense(dt, target.Shape())
	if err != nil {
		return nil, err
	}
	for br := 0; br < bh; br++ {
		for bc := 0; bc < bw; bc++ {
			r0 := int64(br * blockSize)
			c0 := int64(bc * blockSize)
			r1 := min64(r0+int64(blockSize), h)
			c1 := min64(c0+int64(blockSize), w)
			bestDy, bestDx := 0, 0
			bestCost := int64(-1)
			for dy := -radius; dy <= radius; dy++ {
				if r0+int64(dy) < 0 || r1+int64(dy) > h {
					continue
				}
				for dx := -radius; dx <= radius; dx++ {
					if c0+int64(dx) < 0 || c1+int64(dx) > w {
						continue
					}
					cost := blockCost(target, base, r0, c0, r1, c1, int64(dy), int64(dx), bestCost)
					if bestCost < 0 || cost < bestCost {
						bestCost = cost
						bestDy, bestDx = dy, dx
						if cost == 0 {
							dy = radius + 1 // early out
							break
						}
					}
				}
			}
			vectors = append(vectors, int8(bestDy), int8(bestDx))
			// copy matched base region into the prediction
			for r := r0; r < r1; r++ {
				for c := c0; c < c1; c++ {
					pred.SetBitsAt([]int64{r, c}, base.BitsAt([]int64{r + int64(bestDy), c + int64(bestDx)}))
				}
			}
		}
	}
	residual := encodeCellwise(Hybrid, target, pred, math.MaxInt)
	out := putHeader(BlockMatch, dt)
	out = append(out, byte(blockSize))
	out = binary.AppendUvarint(out, uint64(len(vectors)/2))
	for _, v := range vectors {
		out = append(out, byte(v))
	}
	out = binary.AppendUvarint(out, uint64(len(residual)))
	return append(out, residual...), nil
}

// blockCost sums |target−shifted base| over a block, bailing out early
// once the running cost exceeds the best seen so far.
func blockCost(target, base *array.Dense, r0, c0, r1, c1, dy, dx int64, bail int64) int64 {
	dt := target.DType()
	cost := int64(0)
	for r := r0; r < r1; r++ {
		for c := c0; c < c1; c++ {
			d := wrapDiff(dt, target.BitsAt([]int64{r, c}), base.BitsAt([]int64{r + dy, c + dx}))
			if d < 0 {
				d = -d
			}
			cost += d
			if bail >= 0 && cost >= bail {
				return cost
			}
		}
	}
	return cost
}

func applyBlockMatch(blob []byte, base *array.Dense) (*array.Dense, error) {
	if err := readHeader(blob, BlockMatch, base); err != nil {
		return nil, err
	}
	if base.NDim() != 2 {
		return nil, fmt.Errorf("delta: blockmatch base must be 2D")
	}
	if len(blob) < 3 {
		return nil, fmt.Errorf("delta: truncated blockmatch delta")
	}
	blockSize := int(blob[2])
	if blockSize == 0 {
		return nil, fmt.Errorf("delta: blockmatch block size 0")
	}
	pos := 3
	nblocks, k := binary.Uvarint(blob[pos:])
	if k <= 0 {
		return nil, fmt.Errorf("delta: truncated blockmatch count")
	}
	pos += k
	// every block vector occupies two bytes; reject counts the input
	// cannot back (also keeps pos+2*nblocks from overflowing)
	if nblocks > uint64(len(blob)-pos)/2 {
		return nil, fmt.Errorf("delta: truncated blockmatch vectors")
	}
	h, w := base.Shape()[0], base.Shape()[1]
	bh := int((h + int64(blockSize) - 1) / int64(blockSize))
	bw := int((w + int64(blockSize) - 1) / int64(blockSize))
	if int(nblocks) != bh*bw {
		return nil, fmt.Errorf("delta: blockmatch has %d vectors, want %d", nblocks, bh*bw)
	}
	pred, err := array.NewDense(base.DType(), base.Shape())
	if err != nil {
		return nil, err
	}
	for b := 0; b < int(nblocks); b++ {
		dy := int64(int8(blob[pos+b*2]))
		dx := int64(int8(blob[pos+b*2+1]))
		br := b / bw
		bc := b % bw
		r0 := int64(br * blockSize)
		c0 := int64(bc * blockSize)
		r1 := min64(r0+int64(blockSize), h)
		c1 := min64(c0+int64(blockSize), w)
		if r0+dy < 0 || r1+dy > h || c0+dx < 0 || c1+dx > w {
			return nil, fmt.Errorf("delta: blockmatch vector (%d,%d) out of range for block %d", dy, dx, b)
		}
		for r := r0; r < r1; r++ {
			for c := c0; c < c1; c++ {
				pred.SetBitsAt([]int64{r, c}, base.BitsAt([]int64{r + dy, c + dx}))
			}
		}
	}
	pos += int(nblocks) * 2
	rlen, k := binary.Uvarint(blob[pos:])
	if k <= 0 {
		return nil, fmt.Errorf("delta: truncated blockmatch residual length")
	}
	pos += k
	// compare in uint64: a length past 2^63 must not wrap int negative
	if rlen > uint64(len(blob)-pos) {
		return nil, fmt.Errorf("delta: truncated blockmatch residual")
	}
	if err := applyCellwise(Hybrid, blob[pos:pos+int(rlen)], pred); err != nil {
		return nil, err
	}
	return pred, nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
