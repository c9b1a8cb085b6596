package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"arrayvers/internal/array"
	"arrayvers/internal/chunk"
	"arrayvers/internal/delta"
)

// The column walk: how a rewrite decodes. A chunk column is one chunk
// position of one attribute across an array's live versions; a rewrite
// samples (sampleColumns) and rebuilds (buildColumn) the array one
// column at a time, so it never holds more than a column's decoded
// chunks per worker, whatever the array's size, and needs no memo.

// column is one chunk position of one dense attribute across a view's
// live versions, in view order: each version's stored entry there and
// the index of its stored base (-1 for a root, -2 for a base that is
// not live). pos maps a live version id to its index.
type column struct {
	v       *readView
	pos     map[int]int
	attr    array.Attribute
	ck      *chunk.Chunker
	origin  []int64
	key     string
	entries []chunkEntry
	base    []int
}

// columnOf collects the column of attr at origin over v's live versions
// (pos: indexOf(v.ids)); it reads nothing.
func (s *Store) columnOf(v *readView, pos map[int]int, attr array.Attribute, ck *chunk.Chunker, origin []int64) (*column, error) {
	col := &column{v: v, pos: pos, attr: attr, ck: ck, origin: origin, key: ck.Key(origin),
		entries: make([]chunkEntry, len(v.ids)), base: make([]int, len(v.ids))}
	for i, id := range v.ids {
		e, ok := v.byID[id].Chunks[attr.Name][col.key]
		if !ok {
			return nil, fmt.Errorf("core: version %d missing chunk %s/%s", id, attr.Name, col.key)
		}
		col.entries[i], col.base[i] = e, -1
		if e.Base >= 0 {
			p, live := pos[e.Base]
			if !live {
				p = -2
			}
			col.base[i] = p
		}
	}
	return col, nil
}

// reach returns want plus every stored ancestor of a wanted version:
// the versions a walk must pass to decode the wanted ones.
func (c *column) reach(want []bool) []bool {
	on := make([]bool, len(want))
	for i, w := range want {
		for j := i; w && j >= 0 && !on[j]; j = c.base[j] {
			on[j] = true
		}
	}
	return on
}

// read fetches the stored frames of the versions marked in which (nil:
// every version) with one readFrames call; raws[i] is version i's
// payload, nil where unmarked.
func (c *column) read(s *Store, which []bool) ([][]byte, error) {
	frames := make([]frameRef, 0, len(c.entries))
	for i, e := range c.entries {
		if which == nil || which[i] {
			frames = append(frames, frameRef{c.v.ids[i], e})
		}
	}
	got, err := s.readFrames(c.v.gen.dir, frames)
	if err != nil {
		return nil, fmt.Errorf("core: chunk %s/%s: %w", c.attr.Name, c.key, err)
	}
	if which == nil {
		return got, nil
	}
	raws := make([][]byte, len(which))
	k := 0
	for i, w := range which {
		if w {
			raws[i], k = got[k], k+1
		}
	}
	return raws, nil
}

// walk decodes the column's versions marked in on (reach: a marked
// version's base is marked) along their stored bases, depth first from
// each root, handing each to visit(i, d): d is version i's chunk, valid
// only during the call. raws are the marked versions' frames (read). A
// root is decoded into a buffer of its own and a child's delta applied
// into its parent's buffer in place; a buffer is copied only at a
// branch point, for every child but the last, so a linear chain costs
// one buffer and no copy. A marked version no root reaches — its bases
// form a cycle, or end at a version that is not live — is
// ErrDeltaCycle, reported before anything is decoded.
func (c *column) walk(raws [][]byte, on []bool, bufs *chunkBufs, visit func(i int, d *array.Dense) error) error {
	kids := make([][]int, len(on))
	var roots []int
	for i, o := range on {
		switch b := c.base[i]; {
		case !o:
		case b == -1:
			roots = append(roots, i)
		case b >= 0:
			kids[b] = append(kids[b], i)
		}
	}
	reached := make([]bool, len(on))
	for stack := slices.Clone(roots); len(stack) > 0; {
		i := stack[len(stack)-1]
		reached[i] = true
		stack = append(stack[:len(stack)-1], kids[i]...)
	}
	for i, o := range on {
		if o && !reached[i] {
			return fmt.Errorf("%w: chunk %s/%s of version %d", ErrDeltaCycle, c.attr.Name, c.key, c.v.ids[i])
		}
	}
	// down owns d: it hands it to i's last child, or back to bufs at a
	// leaf
	var down func(i int, d *array.Dense) error
	down = func(i int, d *array.Dense) error {
		if err := visit(i, d); err != nil {
			return err
		}
		ks := kids[i]
		if len(ks) == 0 {
			bufs.put(d)
		}
		for k, child := range ks {
			cd := d
			if k < len(ks)-1 {
				var err error
				if cd, err = bufs.clone(d); err != nil {
					return err
				}
			}
			err := c.apply(child, raws[child], cd)
			if err == nil {
				err = down(child, cd)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	for _, r := range roots {
		d, err := c.decodeRoot(r, raws[r], bufs)
		if err == nil {
			err = down(r, d)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// decodeRoot decodes materialized version i's frame into a buffer of
// its own, so the frame itself, which a rewrite may carry, is never
// written to.
func (c *column) decodeRoot(i int, raw []byte, bufs *chunkBufs) (*array.Dense, error) {
	box := c.ck.Box(c.origin)
	raw, err := decodePayload(c.entries[i], raw, box, c.attr.Type, nil)
	if err != nil {
		return nil, c.fail(i, err)
	}
	d, err := bufs.get(c.attr.Type, box.Shape())
	if err != nil {
		return nil, c.fail(i, err)
	}
	if len(raw) != len(d.Bytes()) {
		return nil, c.fail(i, fmt.Errorf("materialized chunk has %d bytes, its box %d", len(raw), len(d.Bytes())))
	}
	copy(d.Bytes(), raw)
	return d, nil
}

// apply rewrites d, version i's stored base's chunk, into version i's
// with its delta frame raw. A method that cannot apply in place
// (ApplyInPlace returns a fresh array) is copied back into d.
func (c *column) apply(i int, raw []byte, d *array.Dense) error {
	raw, err := decodePayload(c.entries[i], raw, c.ck.Box(c.origin), c.attr.Type, nil)
	if err != nil {
		return c.fail(i, err)
	}
	out, err := delta.ApplyInPlace(raw, d)
	if err != nil {
		return c.fail(i, err)
	}
	if out != d {
		copy(d.Bytes(), out.Bytes())
	}
	return nil
}

func (c *column) fail(i int, err error) error {
	return fmt.Errorf("core: chunk %s/%s of version %d: %w", c.attr.Name, c.key, c.v.ids[i], err)
}

// rewriteCounters are the store's deterministic rewrite work counts:
// the chunks rewrites encoded and carried, and the decoded chunk bytes
// their column walks hold (chunkBufs) — now and at the high-water
// mark.
type rewriteCounters struct {
	encoded, carried atomic.Int64
	held, peak       atomic.Int64
}

func (c *rewriteCounters) hold(n int64) {
	h := c.held.Add(n)
	for p := c.peak.Load(); h > p && !c.peak.CompareAndSwap(p, h); p = c.peak.Load() {
	}
}

// chunkBufs is one rewrite pass's free list of decoded chunk buffers,
// shared by its column workers: a walk takes one for each root it
// decodes and each copy it makes, and gives it back once nothing needs
// it, so a pass allocates about as many buffers as it ever holds at
// once, not one per chunk. The buffers in use count in the store's
// rewriteCounters until release.
type chunkBufs struct {
	rc    *rewriteCounters
	mu    sync.Mutex
	free  map[int][][]byte // by length
	inUse int64
}

func (s *Store) newChunkBufs() *chunkBufs {
	return &chunkBufs{rc: &s.rw, free: map[int][][]byte{}}
}

// hold counts n more bytes in use; callers hold p.mu.
func (p *chunkBufs) hold(n int64) {
	p.inUse += n
	p.rc.hold(n)
}

// get returns a buffer of shape's cells, its content undefined.
func (p *chunkBufs) get(dt array.DataType, shape []int64) (*array.Dense, error) {
	n := int64(dt.Size())
	for _, x := range shape {
		n *= x
	}
	p.mu.Lock()
	var b []byte
	if l := p.free[int(n)]; len(l) > 0 {
		b, p.free[int(n)] = l[len(l)-1], l[:len(l)-1]
	}
	p.hold(n)
	p.mu.Unlock()
	if b == nil {
		b = make([]byte, n)
	}
	return array.DenseFromBytes(dt, shape, b)
}

// clone returns a copy of d in a buffer of p's.
func (p *chunkBufs) clone(d *array.Dense) (*array.Dense, error) {
	c, err := p.get(d.DType(), d.Shape())
	if err == nil {
		copy(c.Bytes(), d.Bytes())
	}
	return c, err
}

// put returns d, which nothing reads any more, to the free list.
func (p *chunkBufs) put(d *array.Dense) {
	b := d.Bytes()
	p.mu.Lock()
	p.free[len(b)] = append(p.free[len(b)], b[:len(b):len(b)])
	p.hold(-int64(len(b)))
	p.mu.Unlock()
}

// release ends the pass: whatever a failed walk never gave back stops
// counting as held.
func (p *chunkBufs) release() {
	p.mu.Lock()
	p.hold(-p.inUse)
	p.mu.Unlock()
}
