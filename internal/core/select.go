package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"arrayvers/internal/array"
	"arrayvers/internal/cache"
	"arrayvers/internal/chunk"
	"arrayvers/internal/compress"
	"arrayvers/internal/delta"
)

// The select path (§II-B, Fig. 1 right): look up the chunks needed to
// answer the query in the version metadata, read them from disk,
// decompress, unwind the delta chains, and assemble the result array.
// There is one read primitive, Read: one or more versions of one
// attribute, optionally restricted to a region. Select, SelectRegion,
// SelectMulti and SelectSparseMulti are one-line shapes over it.
//
// Concurrency: each Read snapshots the array's metadata under the store
// lock, then reads and decodes chunks lock-free on a worker pool of
// Options.Parallelism goroutines (one task per overlapping chunk).
// Reconstructed chunks are first looked up in the store-wide LRU
// (Options.CacheBytes); on a miss the delta chain is walked down to the
// nearest cached, memoized or materialized plane and applied back up in
// one private buffer. A read admits only the chunk the query asked for —
// ancestors are not materialized into the LRU — so a later query for a
// child of a cached version costs one delta apply. Every committed write
// admits the dense chunks it encoded too (finalizeBatch), so the next
// insert finds its delta base there instead of walking the chain.

// ReadQuery names what Read returns: the listed versions of one array's
// attribute (empty Attr means the first), restricted to Box (a zero Box
// means the whole array).
type ReadQuery struct {
	Array string
	IDs   []int
	Attr  string
	Box   array.Box
}

// Read returns one plane per listed version, in order, each in the
// array's own representation (dense or sparse). The versions are read
// from one metadata snapshot; a multi-version read walks each chunk's
// delta chain once for all of them (chunkCache). Once ctx is cancelled
// the chunk fan-out stops scheduling work at the next chunk boundary, so
// abandoned requests do not keep burning the decode pool. Each dense
// plane is resolved to its chunks, then assembled into one fresh array.
func (s *Store) Read(ctx context.Context, q ReadQuery) ([]Plane, error) {
	out := make([]Plane, len(q.IDs))
	err := s.resolve(ctx, q, func(i int, cp ChunkedPlane) (err error) {
		out[i], err = cp.assemble()
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ReadChunked is Read without the assembly: one ChunkedPlane per listed
// version, in order, whose dense chunks a caller serializes as they are
// (the server's select reply) instead of copying them into one plane.
func (s *Store) ReadChunked(ctx context.Context, q ReadQuery) ([]ChunkedPlane, error) {
	out := make([]ChunkedPlane, len(q.IDs))
	err := s.resolve(ctx, q, func(i int, cp ChunkedPlane) error {
		out[i] = cp
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ChunkedPlane is one version's answer to a read before assembly. For a
// dense array it is the query box clipped to the array, the chunk
// stride, and the chunks the box overlaps in row-major grid order: each
// is the whole (edge-clipped) chunk, the same shared value the
// store-wide LRU holds, so nobody may write to it. A sparse array's
// version is Sparse instead, already sliced to the box.
type ChunkedPlane struct {
	Box    array.Box
	Stride []int64
	Chunks []*array.Dense
	Sparse *array.Sparse
	tk     *opTracker
	// ck and origins place each chunk for assemble
	ck      *chunk.Chunker
	origins [][]int64
}

// ObserveMaterialize records d and bytes under StageMaterialize for the
// read that resolved p: whoever turns the chunks into the reply reports
// what that took. A ChunkedPlane built outside a read records nothing.
func (p ChunkedPlane) ObserveMaterialize(d time.Duration, bytes int64) {
	p.tk.observe(StageMaterialize, d, bytes)
}

// resolve is the one read path: it snapshots q's array, then resolves
// each listed version's chunks (resolveRegion) and hands them to each in
// version order, serially, so a multi-version memo needs no locking.
func (s *Store) resolve(ctx context.Context, q ReadQuery, each func(i int, cp ChunkedPlane) error) error {
	if len(q.IDs) == 0 {
		return fmt.Errorf("core: no versions selected")
	}
	tk := s.selTracker(ctx)
	t0 := time.Now()
	v, release, err := s.snapshot(q.Array)
	if err != nil {
		return err
	}
	defer release()
	tk.observe(StageSnapshot, time.Since(t0), 0)
	attr, box := q.Attr, q.Box
	if attr == "" {
		attr = v.st.Schema.Attrs[0].Name
	}
	if box.NDim() == 0 {
		box = array.BoxOf(v.st.Schema.Shape())
	}
	// a single-version read has no chain to share, and with a memo the
	// walk would clone every plane it passes
	var qc *chunkCache
	if len(q.IDs) > 1 {
		qc = newChunkCache(true)
	}
	for i, id := range q.IDs {
		cp, err := s.resolveRegion(ctx, v, id, attr, box, qc, tk)
		if err != nil {
			return err
		}
		if err := each(i, cp); err != nil {
			return err
		}
	}
	return nil
}

// Select returns the full content of one version's first attribute.
func (s *Store) Select(name string, id int) (Plane, error) {
	return s.SelectRegion(name, id, array.Box{})
}

// SelectRegion returns the hyper-rectangle box of one version's first
// attribute; only the chunks overlapping the region are read.
func (s *Store) SelectRegion(name string, id int, box array.Box) (Plane, error) {
	return onePlane(s.Read(context.Background(), ReadQuery{Array: name, IDs: []int{id}, Box: box}))
}

// SelectMulti returns an (N+1)-dimensional stack of the given versions:
// "it returns an N+1-dimensional array that is effectively a stack of
// the specified versions" (§II-B). The version order is preserved;
// sparse versions are densified.
func (s *Store) SelectMulti(name string, ids []int) (*array.Dense, error) {
	return StackPlanes(s.Read(context.Background(), ReadQuery{Array: name, IDs: ids}))
}

// SelectSparseMulti returns the given region of each listed version of a
// sparse array, preserving the sparse representation (stacking terabyte-
// scale sparse coordinate spaces densely would be pathological).
func (s *Store) SelectSparseMulti(name string, ids []int, box array.Box) ([]*array.Sparse, error) {
	planes, err := s.Read(context.Background(), ReadQuery{Array: name, IDs: ids, Box: box})
	return SparsePlanes(name, planes, err)
}

// onePlane unwraps a single-version Read.
func onePlane(planes []Plane, err error) (Plane, error) {
	if err != nil {
		return Plane{}, err
	}
	return planes[0], nil
}

// StackPlanes stacks the planes of a multi-version Read into one
// (N+1)-dimensional dense array, densifying sparse planes (the
// SelectMulti result shape). It passes a Read error through, so it can
// wrap the call directly.
func StackPlanes(planes []Plane, err error) (*array.Dense, error) {
	if err != nil {
		return nil, err
	}
	slabs := make([]*array.Dense, len(planes))
	for i, pl := range planes {
		if slabs[i] = pl.Dense; pl.IsSparse() {
			if slabs[i], err = pl.Sparse.ToDense(); err != nil {
				return nil, err
			}
		}
	}
	return array.Stack(slabs)
}

// SparsePlanes unwraps the planes of a multi-version Read of the sparse
// array name (the SelectSparseMulti result shape); a dense array is an
// error. It passes a Read error through, like StackPlanes.
func SparsePlanes(name string, planes []Plane, err error) ([]*array.Sparse, error) {
	if err != nil {
		return nil, err
	}
	out := make([]*array.Sparse, len(planes))
	for i, pl := range planes {
		if !pl.IsSparse() {
			return nil, fmt.Errorf("core: array %q is dense; use SelectMulti", name)
		}
		out[i] = pl.Sparse
	}
	return out, nil
}

// chunkCache memoizes reconstructed chunk contents per (attribute, chunk
// key, version) across a multi-version select, so a range query walks
// each delta chain once rather than once per selected version (the
// paper's range scans read each chunk chain a single time, Fig. 2) —
// even when the store-wide cache is disabled or has evicted the chain.
// The outer map is populated up front by chunkMaps; after that, workers
// touch only their own chunk's inner map, so no locking is needed as
// long as the per-version loop stays serial.
type chunkCache struct {
	dense  map[attrChunk]map[int]*array.Dense
	sparse map[string]map[int]sparseRes // by attribute
	// links makes a dense walk memoize every version it passes on the
	// way to the one asked for, so an ordered multi-version Read decodes
	// each payload once — a reverse chain read oldest-first included. A
	// rewrite needs no memo: it decodes each chunk column in one walk
	// (column.walk). A staging memo keeps only the chunks asked
	// for (a base, a candidate): a walk down a long
	// cold chain then copies one plane, not one per link.
	links bool
}

// attrChunk names one chunk of one attribute.
type attrChunk struct{ attr, chunk string }

// sparseRes is a resolved sparse version plus whether the object is
// shared with the store-wide cache (and therefore must be cloned before
// a caller may mutate it).
type sparseRes struct {
	sp     *array.Sparse
	shared bool
}

func newChunkCache(links bool) *chunkCache {
	return &chunkCache{dense: map[attrChunk]map[int]*array.Dense{}, sparse: map[string]map[int]sparseRes{}, links: links}
}

// chunkMaps returns the memo map of attr's chunk at each of origins,
// creating the missing ones; it must be called before chunk workers fan
// out. A nil cache (a single-version read) has none and builds no keys.
func (c *chunkCache) chunkMaps(attr string, ck *chunk.Chunker, origins [][]int64) []map[int]*array.Dense {
	if c == nil {
		return nil
	}
	out := make([]map[int]*array.Dense, len(origins))
	for i, origin := range origins {
		k := attrChunk{attr, ck.Key(origin)}
		if c.dense[k] == nil {
			c.dense[k] = map[int]*array.Dense{}
		}
		out[i] = c.dense[k]
	}
	return out
}

// sparseMap returns the memo of attr's resolved sparse versions,
// creating it; a nil cache has none.
func (c *chunkCache) sparseMap(attr string) map[int]sparseRes {
	if c == nil {
		return nil
	}
	if c.sparse[attr] == nil {
		c.sparse[attr] = map[int]sparseRes{}
	}
	return c.sparse[attr]
}

// resolveRegion reconstructs the chunks of a version's attribute plane
// that box overlaps against a metadata view, fanning the per-chunk work
// out on the worker pool; a sparse version is resolved whole and sliced
// to box. tk (nil for internal readers) receives per-stage timings.
func (s *Store) resolveRegion(ctx context.Context, v *readView, id int, attr string, box array.Box, qc *chunkCache, tk *opTracker) (ChunkedPlane, error) {
	st := v.st
	if _, err := v.version(id); err != nil {
		return ChunkedPlane{}, err
	}
	ai := st.Schema.AttrIndex(attr)
	if ai < 0 {
		return ChunkedPlane{}, fmt.Errorf("core: array %q has no attribute %q", st.Schema.Name, attr)
	}
	if err := box.Validate(); err != nil {
		return ChunkedPlane{}, err
	}
	if box.NDim() != len(st.Schema.Dims) {
		return ChunkedPlane{}, fmt.Errorf("core: query box has %d dims, array has %d", box.NDim(), len(st.Schema.Dims))
	}
	full := array.BoxOf(st.Schema.Shape())
	box = box.Intersect(full)
	if box.Empty() {
		return ChunkedPlane{}, fmt.Errorf("core: query region is empty")
	}
	if st.SparseRep {
		sp, shared, err := s.resolveSparse(v, id, attr, qc.sparseMap(attr), 0, tk)
		if err != nil {
			return ChunkedPlane{}, err
		}
		t0 := time.Now()
		if box.Equal(full) {
			// an object shared with the store-wide cache must not escape
			// to callers, who may mutate it; hand out a copy instead
			if shared {
				sp = sp.Clone()
			}
			tk.observe(StageMaterialize, time.Since(t0), sp.SizeBytes())
			return ChunkedPlane{Box: box, Sparse: sp, tk: tk}, nil
		}
		sub, err := sp.Slice(box)
		if err != nil {
			return ChunkedPlane{}, err
		}
		tk.observe(StageMaterialize, time.Since(t0), sub.SizeBytes())
		return ChunkedPlane{Box: box, Sparse: sub, tk: tk}, nil
	}
	ck, err := st.chunker()
	if err != nil {
		return ChunkedPlane{}, err
	}
	origins := ck.Overlapping(box)
	locals := qc.chunkMaps(attr, ck, origins)
	chunks := make([]*array.Dense, len(origins))
	err = forEachLimit(ctx, len(origins), s.opts.Parallelism, func(i int) error {
		s.prof.decodeActive.Add(1)
		defer s.prof.decodeActive.Add(-1)
		var local map[int]*array.Dense
		if locals != nil {
			local = locals[i]
		}
		var err error
		chunks[i], err = s.resolveDenseChunk(v, id, attr, ck, origins[i], local, qc != nil && qc.links, tk)
		return err
	})
	if err != nil {
		return ChunkedPlane{}, err
	}
	return ChunkedPlane{Box: box, Stride: ck.Side(), Chunks: chunks, tk: tk, ck: ck, origins: origins}, nil
}

// readRegionView is one version's plane for the store's own readers:
// resolveRegion followed by assemble.
func (s *Store) readRegionView(ctx context.Context, v *readView, id int, attr string, box array.Box, qc *chunkCache, tk *opTracker) (Plane, error) {
	cp, err := s.resolveRegion(ctx, v, id, attr, box, qc, tk)
	if err != nil {
		return Plane{}, err
	}
	return cp.assemble()
}

// assemble turns a resolved version into one plane: a sparse one as it
// is, a dense one as a fresh array of the box's shape with each chunk's
// overlap copied in — one copy, chunk to plane, serially: a second
// fan-out after the resolve's costs a warm select more than it saves.
func (p ChunkedPlane) assemble() (Plane, error) {
	if p.Sparse != nil {
		return Plane{Sparse: p.Sparse}, nil
	}
	dt := p.Chunks[0].DType()
	out, err := array.NewDense(dt, p.Box.Shape())
	if err != nil {
		return Plane{}, err
	}
	for i, c := range p.Chunks {
		cbox := p.ck.Box(p.origins[i])
		overlap := cbox.Intersect(p.Box)
		t0 := time.Now()
		if err := out.CopyRegion(overlap.Translate(p.Box.Lo).Lo, c, overlap.Translate(cbox.Lo)); err != nil {
			return Plane{}, err
		}
		p.ObserveMaterialize(time.Since(t0), overlap.NumCells()*int64(dt.Size()))
	}
	return Plane{Dense: out}, nil
}

// ErrDeltaCycle is returned (wrapped) by a read whose delta chain does
// not reach a materialized version within the view's live-version count:
// the bases form a cycle, which metadata replay does not rule out.
var ErrDeltaCycle = errors.New("core: delta chain does not reach a materialized version")

// walkReadBytes bounds the delta frames one chain walk holds at once:
// the walk reads its deltas in segments of at most this many bytes (a
// larger frame is a segment of its own), applying and dropping each
// before reading the next. It is a constant, not an option; a chain of
// a few dozen typical deltas fits in one segment.
const walkReadBytes = 1 << 20

// resolveDenseChunk reconstructs one chunk of one version by walking its
// delta chain: "a chain of versions must be accessed, starting from one
// that is stored in native form" (§II-B, Fig. 2). The walk goes from the
// target toward the root until it meets a plane to start from — an entry
// of local (the per-query memo), a store-wide cache hit, or the
// materialized root — without reading anything. Then it reads: the
// root, if the walk reached it, with one exact-size read whose buffer
// becomes the plane, and the delta frames it passed in segments of at
// most walkReadBytes, one readFrames call each, which coalesces the
// adjacent frames of one file into one pread. It copies the starting
// plane once into a private buffer and applies the deltas to the buffer
// in place on the way back. Only the target is admitted to the LRU, by
// a view that admits; with a memo the target is memoized, and with links
// every intermediate is copied into the memo too, so an ordered
// multi-version scan decodes each payload once. Cached and memoized
// planes are shared and never mutated, and none of them aliases a run
// buffer: deltas apply into the plane.
func (s *Store) resolveDenseChunk(v *readView, id int, attr string, ck *chunk.Chunker, origin []int64, local map[int]*array.Dense, links bool, tk *opTracker) (*array.Dense, error) {
	st := v.st
	key := ck.Key(origin)
	box := ck.Box(origin)
	dt := st.Schema.Attrs[st.Schema.AttrIndex(attr)].Type
	ckey := func(id int) cache.Key {
		return cache.Key{Array: st.Schema.Name, Gen: v.gen.id, Version: id, Attr: attr, Chunk: key}
	}
	fail := func(id int, err error) error {
		return fmt.Errorf("core: chunk %s/%s of version %d: %w", attr, key, id, err)
	}
	// descend until a plane to start from; chain collects the frames
	// passed on the way, target first, ending at the root if the walk
	// reaches it
	var chain []frameRef
	var buf *array.Dense
	for cur := id; ; {
		if len(chain) >= len(v.ids) {
			return nil, fmt.Errorf("%w: chunk %s/%s of version %d", ErrDeltaCycle, attr, key, id)
		}
		if buf = local[cur]; buf != nil {
			break
		}
		if buf = s.cachedChunk(v, ckey(cur), tk); buf != nil {
			if local != nil {
				local[cur] = buf
			}
			break
		}
		vm, err := v.version(cur)
		if err != nil {
			return nil, err
		}
		e, ok := vm.Chunks[attr][key]
		if !ok {
			return nil, fmt.Errorf("core: version %d missing chunk %s/%s", cur, attr, key)
		}
		chain = append(chain, frameRef{cur, e})
		if e.Base < 0 {
			break
		}
		cur = e.Base
	}
	owned := false // buf is private to this walk and may be rewritten
	if buf == nil {
		root := chain[len(chain)-1]
		chain = chain[:len(chain)-1]
		raws, err := s.readChunkFrames(v, []frameRef{root}, tk)
		if err != nil {
			return nil, fmt.Errorf("core: chunk %s/%s: %w", attr, key, err)
		}
		raw, err := decodePayload(root.e, raws[0], box, dt, tk)
		if err != nil {
			return nil, fail(root.id, err)
		}
		if buf, err = array.DenseFromBytes(dt, box.Shape(), raw); err != nil {
			return nil, fail(root.id, err)
		}
		tk.attr("chunks_decoded", 1)
		owned = true
		if local != nil && (links || len(chain) == 0) {
			local[root.id] = buf
			owned = false
		}
		if len(chain) == 0 {
			s.admitChunk(v, ckey(id), buf)
		}
	}
	// ascend, rewriting the one private buffer link by link, reading the
	// delta frames in segments from the root side: each is at most
	// walkReadBytes of frames (or one larger frame) and is dropped once
	// applied, so a walk never holds a whole long chain
	for hi := len(chain); hi > 0; {
		lo, held := hi-1, frameLen(chain[hi-1].e.Length)
		for lo > 0 && held+frameLen(chain[lo-1].e.Length) <= walkReadBytes {
			lo--
			held += frameLen(chain[lo].e.Length)
		}
		raws, err := s.readChunkFrames(v, chain[lo:hi], tk)
		if err != nil {
			return nil, fmt.Errorf("core: chunk %s/%s: %w", attr, key, err)
		}
		for i := hi - 1; i >= lo; i-- {
			l := chain[i]
			raw, err := decodePayload(l.e, raws[i-lo], box, dt, tk)
			if err != nil {
				return nil, fail(l.id, err)
			}
			t0 := time.Now()
			if !owned {
				buf, owned = buf.Clone(), true
			}
			if buf, err = delta.ApplyInPlace(raw, buf); err != nil {
				return nil, fail(l.id, err)
			}
			tk.observe(StageDelta, time.Since(t0), buf.SizeBytes())
			tk.attr("chunks_decoded", 1)
			switch {
			case i > 0 && links && local != nil:
				local[l.id] = buf.Clone()
			case i == 0:
				if local != nil {
					local[id] = buf
				}
				s.admitChunk(v, ckey(id), buf)
			}
		}
		hi = lo
	}
	return buf, nil
}

// readChunkFrames reads frames (readFrames) under the read stage.
func (s *Store) readChunkFrames(v *readView, frames []frameRef, tk *opTracker) ([][]byte, error) {
	if len(frames) == 0 {
		return nil, nil
	}
	t0 := time.Now()
	raws, err := s.readFrames(v.gen.dir, frames)
	if err != nil {
		return nil, err
	}
	var bytes int64
	for _, fr := range frames {
		bytes += fr.e.Length
	}
	tk.observe(StageRead, time.Since(t0), bytes)
	tk.attr("bytes_read", bytes)
	return raws, nil
}

// decodePayload undoes a chunk payload's compression under the decode
// stage. An uncompressed payload comes back as is.
func decodePayload(e chunkEntry, raw []byte, box array.Box, dt array.DataType, tk *opTracker) ([]byte, error) {
	t0 := time.Now()
	if compress.Codec(e.Codec) != compress.None {
		var err error
		if raw, err = unseal(compress.Codec(e.Codec), raw, sealParams(e.Base < 0, box, dt)); err != nil {
			return nil, err
		}
	}
	tk.observe(StageDecode, time.Since(t0), int64(len(raw)))
	return raw, nil
}

// cachedChunk looks a reconstructed chunk up in the store-wide cache; nil
// on a miss or for a view that does not look up.
func (s *Store) cachedChunk(v *readView, k cache.Key, tk *opTracker) *array.Dense {
	if v.noLookup {
		return nil
	}
	t0 := time.Now()
	got, ok := s.chunkCache.Get(k)
	tk.observe(StageCache, time.Since(t0), 0)
	if !ok {
		v.st.cacheMisses.Add(1)
		tk.attr("cache_misses", 1)
		return nil
	}
	v.st.cacheHits.Add(1)
	tk.attr("cache_hits", 1)
	return got.(*array.Dense)
}

// admitChunk puts a reconstructed chunk into the store-wide cache,
// unless the view does not admit.
func (s *Store) admitChunk(v *readView, k cache.Key, d *array.Dense) {
	if !v.noAdmit {
		s.chunkCache.Put(k, d)
	}
}

// resolveSparse reconstructs a sparse version by unwinding its delta
// chain. As with dense chunks, the store-wide cache is consulted first
// and populated as the chain unwinds. The returned shared flag reports
// whether the object is owned by (or visible through) the store-wide
// cache, in which case it must not be mutated — callers serving it out
// clone first. Tracking sharedness per object keeps uncached sparse
// reads clone-free. hops counts the links already walked, which bounds
// the recursion like the dense walk (ErrDeltaCycle).
func (s *Store) resolveSparse(v *readView, id int, attr string, local map[int]sparseRes, hops int, tk *opTracker) (*array.Sparse, bool, error) {
	if hops >= len(v.ids) {
		return nil, false, fmt.Errorf("%w: sparse container of version %d", ErrDeltaCycle, id)
	}
	if local == nil {
		local = make(map[int]sparseRes)
	}
	if got, ok := local[id]; ok {
		return got.sp, got.shared, nil
	}
	st := v.st
	ckey := cache.Key{Array: st.Schema.Name, Gen: v.gen.id, Version: id, Attr: attr, Chunk: "chunk-full"}
	if !v.noLookup {
		t0 := time.Now()
		got, ok := s.chunkCache.Get(ckey)
		tk.observe(StageCache, time.Since(t0), 0)
		if ok {
			st.cacheHits.Add(1)
			tk.attr("cache_hits", 1)
			sp := got.(*array.Sparse)
			local[id] = sparseRes{sp: sp, shared: true}
			return sp, true, nil
		}
		st.cacheMisses.Add(1)
		tk.attr("cache_misses", 1)
	}
	vm, err := v.version(id)
	if err != nil {
		return nil, false, err
	}
	e, ok := vm.Chunks[attr]["chunk-full"]
	if !ok {
		return nil, false, fmt.Errorf("core: version %d missing sparse container for %s", id, attr)
	}
	raws, err := s.readChunkFrames(v, []frameRef{{id, e}}, tk)
	if err != nil {
		return nil, false, err
	}
	raw := raws[0]
	t0 := time.Now()
	if compress.Codec(e.Codec) != compress.None {
		raw, err = unseal(compress.Codec(e.Codec), raw, compress.Params{Elem: 1})
		if err != nil {
			return nil, false, fmt.Errorf("core: sparse container of version %d: %w", id, err)
		}
	}
	var out *array.Sparse
	if e.Base < 0 {
		out, err = array.UnmarshalSparse(raw)
		if err != nil {
			return nil, false, fmt.Errorf("core: sparse container of version %d: %w", id, err)
		}
		tk.observe(StageDecode, time.Since(t0), int64(len(raw)))
	} else {
		tk.observe(StageDecode, time.Since(t0), int64(len(raw)))
		baseArr, _, err := s.resolveSparse(v, e.Base, attr, local, hops+1, tk)
		if err != nil {
			return nil, false, err
		}
		t0 = time.Now()
		out, err = delta.ApplySparseOps(raw, baseArr)
		if err != nil {
			return nil, false, fmt.Errorf("core: sparse container of version %d: %w", id, err)
		}
		tk.observe(StageDelta, time.Since(t0), out.SizeBytes())
	}
	tk.attr("chunks_decoded", 1)
	shared := false
	if !v.noAdmit {
		shared = s.chunkCache.Put(ckey, out)
	}
	local[id] = sparseRes{sp: out, shared: shared}
	return out, shared, nil
}
