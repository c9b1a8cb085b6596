package core

import (
	"context"
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
// Four select primitives are provided: whole version, version region,
// stacked multi-version, and stacked multi-version region.
//
// Concurrency: each public select snapshots the array's metadata under
// the store lock, then reads and decodes chunks lock-free on a worker
// pool of Options.Parallelism goroutines (one task per overlapping
// chunk). Reconstructed chunks are first looked up in the store-wide LRU
// (Options.CacheBytes); on a miss the delta chain is unwound and every
// ancestor materialized along the way is inserted, so later queries for
// nearby versions start from a warm prefix of the chain.

// Select returns the full content of one version's first attribute.
func (s *Store) Select(name string, id int) (Plane, error) {
	return s.SelectAttr(name, id, "")
}

// SelectAttr returns the full content of one version's named attribute
// (empty attr means the first).
func (s *Store) SelectAttr(name string, id int, attr string) (Plane, error) {
	return s.SelectAttrCtx(context.Background(), name, id, attr)
}

// SelectAttrCtx is SelectAttr honoring ctx: once the context is
// cancelled the chunk fan-out stops scheduling work at the next chunk
// boundary, so abandoned requests do not keep burning the decode pool.
func (s *Store) SelectAttrCtx(ctx context.Context, name string, id int, attr string) (Plane, error) {
	tk := s.selTracker(ctx)
	t0 := time.Now()
	v, release, err := s.snapshot(name)
	if err != nil {
		return Plane{}, err
	}
	defer release()
	tk.observe(StageSnapshot, time.Since(t0), 0)
	pl, err := s.readRegionView(ctx, v, id, s.attrName(v.st, attr), array.BoxOf(v.st.Schema.Shape()), nil, tk)
	if err == nil {
		s.recordAccess(name, []int{id})
	}
	return pl, err
}

// SelectRegion returns the hyper-rectangle box of one version's first
// attribute; only the chunks overlapping the region are read.
func (s *Store) SelectRegion(name string, id int, box array.Box) (Plane, error) {
	return s.SelectRegionAttr(name, id, "", box)
}

// SelectRegionAttr is SelectRegion for a named attribute.
func (s *Store) SelectRegionAttr(name string, id int, attr string, box array.Box) (Plane, error) {
	return s.SelectRegionAttrCtx(context.Background(), name, id, attr, box)
}

// SelectRegionAttrCtx is SelectRegionAttr honoring ctx (see
// SelectAttrCtx).
func (s *Store) SelectRegionAttrCtx(ctx context.Context, name string, id int, attr string, box array.Box) (Plane, error) {
	tk := s.selTracker(ctx)
	t0 := time.Now()
	v, release, err := s.snapshot(name)
	if err != nil {
		return Plane{}, err
	}
	defer release()
	tk.observe(StageSnapshot, time.Since(t0), 0)
	pl, err := s.readRegionView(ctx, v, id, s.attrName(v.st, attr), box, nil, tk)
	if err == nil {
		s.recordAccess(name, []int{id})
	}
	return pl, err
}

// SelectMulti returns an (N+1)-dimensional stack of the given dense
// versions: "it returns an N+1-dimensional array that is effectively a
// stack of the specified versions" (§II-B). The version order is
// preserved.
func (s *Store) SelectMulti(name string, ids []int) (*array.Dense, error) {
	return s.SelectMultiRegion(name, ids, array.Box{})
}

// SelectMultiRegion stacks the given hyper-rectangle of each listed
// version into a single (N+1)-dimensional array (the fourth select form).
// A zero box selects the whole array.
func (s *Store) SelectMultiRegion(name string, ids []int, box array.Box) (*array.Dense, error) {
	return s.SelectMultiRegionCtx(context.Background(), name, ids, box)
}

// SelectMultiRegionCtx is SelectMultiRegion honoring ctx (see
// SelectAttrCtx).
func (s *Store) SelectMultiRegionCtx(ctx context.Context, name string, ids []int, box array.Box) (*array.Dense, error) {
	tk := s.selTracker(ctx)
	t0 := time.Now()
	v, release, err := s.snapshot(name)
	if err != nil {
		return nil, err
	}
	defer release()
	tk.observe(StageSnapshot, time.Since(t0), 0)
	if len(ids) == 0 {
		return nil, fmt.Errorf("core: no versions selected")
	}
	if box.NDim() == 0 {
		box = array.BoxOf(v.st.Schema.Shape())
	}
	attr := v.st.Schema.Attrs[0].Name
	slabs := make([]*array.Dense, len(ids))
	qc := newChunkCache()
	for i, id := range ids {
		pl, err := s.readRegionView(ctx, v, id, attr, box, qc, tk)
		if err != nil {
			return nil, err
		}
		if pl.IsSparse() {
			d, err := pl.Sparse.ToDense()
			if err != nil {
				return nil, err
			}
			slabs[i] = d
		} else {
			slabs[i] = pl.Dense
		}
	}
	s.recordAccess(name, ids)
	t0 = time.Now()
	stacked, err := array.Stack(slabs)
	if err != nil {
		return nil, err
	}
	tk.observe(StageMaterialize, time.Since(t0), stacked.SizeBytes())
	return stacked, nil
}

// SelectSparseMulti returns the given region of each listed version of a
// sparse array, preserving the sparse representation (stacking terabyte-
// scale sparse coordinate spaces densely would be pathological).
func (s *Store) SelectSparseMulti(name string, ids []int, box array.Box) ([]*array.Sparse, error) {
	return s.SelectSparseMultiCtx(context.Background(), name, ids, box)
}

// SelectSparseMultiCtx is SelectSparseMulti honoring ctx (see
// SelectAttrCtx).
func (s *Store) SelectSparseMultiCtx(ctx context.Context, name string, ids []int, box array.Box) ([]*array.Sparse, error) {
	tk := s.selTracker(ctx)
	t0 := time.Now()
	v, release, err := s.snapshot(name)
	if err != nil {
		return nil, err
	}
	defer release()
	tk.observe(StageSnapshot, time.Since(t0), 0)
	if !v.st.SparseRep {
		return nil, fmt.Errorf("core: array %q is dense; use SelectMulti", name)
	}
	if box.NDim() == 0 {
		box = array.BoxOf(v.st.Schema.Shape())
	}
	attr := v.st.Schema.Attrs[0].Name
	out := make([]*array.Sparse, len(ids))
	qc := newChunkCache()
	for i, id := range ids {
		pl, err := s.readRegionView(ctx, v, id, attr, box, qc, tk)
		if err != nil {
			return nil, err
		}
		out[i] = pl.Sparse
	}
	s.recordAccess(name, ids)
	return out, nil
}

func (s *Store) attrName(st *arrayState, attr string) string {
	if attr == "" {
		return st.Schema.Attrs[0].Name
	}
	return attr
}

// chunkCache memoizes reconstructed chunk contents per (chunk key,
// version) across a multi-version select, so a range query walks each
// delta chain once rather than once per selected version (the paper's
// range scans read each chunk chain a single time, Fig. 2) — even when
// the store-wide cache is disabled or has evicted the chain. The outer
// map is populated up front by ensure(); after that, workers touch only
// their own chunk's inner map, so no locking is needed as long as the
// per-version loop stays serial.
type chunkCache struct {
	dense  map[string]map[int]*array.Dense
	sparse map[int]sparseRes
}

// sparseRes is a resolved sparse version plus whether the object is
// shared with the store-wide cache (and therefore must be cloned before
// a caller may mutate it).
type sparseRes struct {
	sp     *array.Sparse
	shared bool
}

func newChunkCache() *chunkCache {
	return &chunkCache{dense: map[string]map[int]*array.Dense{}, sparse: map[int]sparseRes{}}
}

// ensure pre-creates the per-chunk maps for the given keys; must be
// called before chunk workers fan out.
func (c *chunkCache) ensure(keys []string) {
	if c == nil {
		return
	}
	for _, k := range keys {
		if _, ok := c.dense[k]; !ok {
			c.dense[k] = map[int]*array.Dense{}
		}
	}
}

// chunk returns the per-chunk map created by ensure (nil for a nil
// cache). Safe to call concurrently: it only reads the outer map.
func (c *chunkCache) chunk(key string) map[int]*array.Dense {
	if c == nil {
		return nil
	}
	return c.dense[key]
}

// readRegionView reconstructs the part of a version's attribute plane
// covered by box against a metadata view, reading only the overlapping
// chunks and fanning the per-chunk work out on the worker pool. tk (nil
// for internal readers) receives per-stage timings.
func (s *Store) readRegionView(ctx context.Context, v *readView, id int, attr string, box array.Box, qc *chunkCache, tk *opTracker) (Plane, error) {
	st := v.st
	if _, err := v.version(id); err != nil {
		return Plane{}, err
	}
	ai := st.Schema.AttrIndex(attr)
	if ai < 0 {
		return Plane{}, fmt.Errorf("core: array %q has no attribute %q", st.Schema.Name, attr)
	}
	if err := box.Validate(); err != nil {
		return Plane{}, err
	}
	if box.NDim() != len(st.Schema.Dims) {
		return Plane{}, fmt.Errorf("core: query box has %d dims, array has %d", box.NDim(), len(st.Schema.Dims))
	}
	full := array.BoxOf(st.Schema.Shape())
	box = box.Intersect(full)
	if box.Empty() {
		return Plane{}, fmt.Errorf("core: query region is empty")
	}
	dt := st.Schema.Attrs[ai].Type
	if st.SparseRep {
		var spCache map[int]sparseRes
		if qc != nil {
			spCache = qc.sparse
		}
		sp, shared, err := s.resolveSparse(v, id, attr, spCache, tk)
		if err != nil {
			return Plane{}, err
		}
		t0 := time.Now()
		if box.Equal(full) {
			// an object shared with the store-wide cache must not escape
			// to callers, who may mutate it; hand out a copy instead
			if shared {
				sp = sp.Clone()
			}
			tk.observe(StageMaterialize, time.Since(t0), sp.SizeBytes())
			return Plane{Sparse: sp}, nil
		}
		sub, err := sp.Slice(box)
		if err != nil {
			return Plane{}, err
		}
		tk.observe(StageMaterialize, time.Since(t0), sub.SizeBytes())
		return Plane{Sparse: sub}, nil
	}
	ck, err := st.chunker()
	if err != nil {
		return Plane{}, err
	}
	out, err := array.NewDense(dt, box.Shape())
	if err != nil {
		return Plane{}, err
	}
	origins := ck.Overlapping(box)
	keys := make([]string, len(origins))
	for i, origin := range origins {
		keys[i] = ck.Key(origin)
	}
	qc.ensure(keys)
	err = forEachLimit(ctx, len(origins), s.opts.Parallelism, func(i int) error {
		s.prof.decodeActive.Add(1)
		defer s.prof.decodeActive.Add(-1)
		origin := origins[i]
		chunkArr, err := s.resolveDenseChunk(v, id, attr, ck, origin, qc.chunk(keys[i]), tk)
		if err != nil {
			return err
		}
		cbox := ck.Box(origin)
		overlap := cbox.Intersect(box)
		t0 := time.Now()
		piece, err := chunkArr.Slice(overlap.Translate(cbox.Lo))
		if err != nil {
			return err
		}
		// workers write disjoint regions of out, so no locking is needed
		err = out.WriteRegion(overlap.Translate(box.Lo).Lo, piece)
		if err == nil {
			tk.observe(StageMaterialize, time.Since(t0), piece.SizeBytes())
		}
		return err
	})
	if err != nil {
		return Plane{}, err
	}
	return Plane{Dense: out}, nil
}

// resolveDenseChunk reconstructs one chunk of one version by unwinding
// its delta chain: "a chain of versions must be accessed, starting from
// one that is stored in native form" (§II-B, Fig. 2). local memoizes
// chunk contents per version within one walk; the store-wide cache is
// consulted at every link, and every version materialized while the
// chain unwinds is inserted into it. Cached arrays are shared across
// queries and must never be mutated.
func (s *Store) resolveDenseChunk(v *readView, id int, attr string, ck *chunk.Chunker, origin []int64, local map[int]*array.Dense, tk *opTracker) (*array.Dense, error) {
	if local == nil {
		local = make(map[int]*array.Dense)
	}
	if got, ok := local[id]; ok {
		return got, nil
	}
	st := v.st
	key := ck.Key(origin)
	ckey := cache.Key{Array: st.Schema.Name, Epoch: v.epoch, Version: id, Attr: attr, Chunk: key}
	if !v.noCache {
		t0 := time.Now()
		got, ok := s.chunkCache.Get(ckey)
		tk.observe(StageCache, time.Since(t0), 0)
		s.prof.cacheAccess(st.Schema.Name, ok)
		if ok {
			tk.attr("cache_hits", 1)
			var d *array.Dense
			switch val := got.(type) {
			case *mmapDense:
				d = val.Dense
			default:
				d = got.(*array.Dense)
			}
			local[id] = d
			return d, nil
		}
		tk.attr("cache_misses", 1)
	}
	vm, err := v.version(id)
	if err != nil {
		return nil, err
	}
	e, ok := vm.Chunks[attr][key]
	if !ok {
		return nil, fmt.Errorf("core: version %d missing chunk %s/%s", id, attr, key)
	}
	t0 := time.Now()
	blob, ms, err := s.readBlobShared(v.dir, e)
	if err != nil {
		return nil, err
	}
	tk.observe(StageRead, time.Since(t0), e.Length)
	tk.attr("bytes_read", e.Length)
	box := ck.Box(origin)
	ai := st.Schema.AttrIndex(attr)
	dt := st.Schema.Attrs[ai].Type
	t0 = time.Now()
	// An uncompressed payload needs no unseal copy: delta blobs are only
	// read transiently under the I/O latch, and a materialized root built
	// over mapping bytes is admitted to the cache as a zero-copy plane
	// holding a counted mapping ref. The one aliasing case that must not
	// escape is a no-cache view's root plane (bulk loads hand planes to
	// callers that outlive this query's latch), which gets a private copy.
	var raw []byte
	zeroCopy := ms != nil && compress.Codec(e.Codec) == compress.None && e.Base < 0 && !v.noCache
	if compress.Codec(e.Codec) == compress.None {
		raw = blob
		if ms != nil && e.Base < 0 && v.noCache {
			raw = append([]byte(nil), blob...)
		}
	} else {
		raw, err = unseal(compress.Codec(e.Codec), blob, sealParams(e.Base < 0, box, dt))
		if err != nil {
			return nil, fmt.Errorf("core: chunk %s/%s of version %d: %w", attr, key, id, err)
		}
	}
	var out *array.Dense
	if e.Base < 0 {
		out, err = array.DenseFromBytes(dt, box.Shape(), raw)
		if err != nil {
			return nil, fmt.Errorf("core: chunk %s/%s of version %d: %w", attr, key, id, err)
		}
		tk.observe(StageDecode, time.Since(t0), int64(len(raw)))
	} else {
		tk.observe(StageDecode, time.Since(t0), int64(len(raw)))
		baseArr, err := s.resolveDenseChunk(v, e.Base, attr, ck, origin, local, tk)
		if err != nil {
			return nil, err
		}
		t0 = time.Now()
		out, err = delta.Apply(raw, baseArr)
		if err != nil {
			return nil, fmt.Errorf("core: chunk %s/%s of version %d: %w", attr, key, id, err)
		}
		tk.observe(StageDelta, time.Since(t0), out.SizeBytes())
	}
	tk.attr("chunks_decoded", 1)
	local[id] = out
	if !v.noCache {
		if zeroCopy {
			if ms.acquire() {
				if s.chunkCache.Put(ckey, &mmapDense{Dense: out, set: ms}) {
					s.addMmapPlane(out.SizeBytes())
				} else {
					ms.release()
				}
			}
			// acquire can only fail on a drained set, which the I/O latch
			// rules out for the generation this query reads; skipping the
			// insert is the safe degradation either way
		} else {
			s.chunkCache.Put(ckey, out)
		}
	}
	return out, nil
}

// resolveSparse reconstructs a sparse version by unwinding its delta
// chain. As with dense chunks, the store-wide cache is consulted first
// and populated as the chain unwinds. The returned shared flag reports
// whether the object is owned by (or visible through) the store-wide
// cache, in which case it must not be mutated — callers serving it out
// clone first. Tracking sharedness per object keeps uncached sparse
// reads clone-free.
func (s *Store) resolveSparse(v *readView, id int, attr string, local map[int]sparseRes, tk *opTracker) (*array.Sparse, bool, error) {
	if local == nil {
		local = make(map[int]sparseRes)
	}
	if got, ok := local[id]; ok {
		return got.sp, got.shared, nil
	}
	st := v.st
	ckey := cache.Key{Array: st.Schema.Name, Epoch: v.epoch, Version: id, Attr: attr, Chunk: "chunk-full"}
	if !v.noCache {
		t0 := time.Now()
		got, ok := s.chunkCache.Get(ckey)
		tk.observe(StageCache, time.Since(t0), 0)
		s.prof.cacheAccess(st.Schema.Name, ok)
		if ok {
			tk.attr("cache_hits", 1)
			sp := got.(*array.Sparse)
			local[id] = sparseRes{sp: sp, shared: true}
			return sp, true, nil
		}
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
	t0 := time.Now()
	blob, ms, err := s.readBlobShared(v.dir, e)
	if err != nil {
		return nil, false, err
	}
	tk.observe(StageRead, time.Since(t0), e.Length)
	tk.attr("bytes_read", e.Length)
	t0 = time.Now()
	// sparse decodes may retain slices of raw (and the decoded container
	// can outlive this query via the cache), so mapping bytes are always
	// copied out; the mmap read still skips the read syscall
	raw := blob
	if compress.Codec(e.Codec) != compress.None {
		raw, err = unseal(compress.Codec(e.Codec), blob, compress.Params{Elem: 1})
		if err != nil {
			return nil, false, fmt.Errorf("core: sparse container of version %d: %w", id, err)
		}
	} else if ms != nil {
		raw = append([]byte(nil), blob...)
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
		baseArr, _, err := s.resolveSparse(v, e.Base, attr, local, tk)
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
	if !v.noCache {
		shared = s.chunkCache.Put(ckey, out)
	}
	local[id] = sparseRes{sp: out, shared: shared}
	return out, shared, nil
}
