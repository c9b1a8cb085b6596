package main

// Every call the benchmark makes into a package of the store goes through
// this file, so a change to the store's API is met here and nowhere else.
// The list is closed (see README.md "Pinned call sites"): nothing here may
// touch what ROADMAP items 2-3 plan to delete — SetKernel/ActiveKernel,
// the *Into unpackers, the *Ctx select variants, Options.DisableMmap,
// DisableGroupCommit or PerArrayCommit.

import (
	"io"
	"sync/atomic"
	"time"

	"arrayvers"
	"arrayvers/internal/bitpack"
	"arrayvers/internal/cache"
	"arrayvers/internal/chunk"
	"arrayvers/internal/delta"
	"arrayvers/internal/fsio"
	"arrayvers/internal/layout"
	"arrayvers/internal/matmat"
	"arrayvers/internal/wire"
)

// pinOpen opens an embedded store with the benchmark's chunk size. fs nil
// means the real filesystem.
func pinOpen(dir string, cacheBytes int64, durable bool, fs fsio.FS) (*arrayvers.Store, error) {
	opts := arrayvers.DefaultOptions()
	opts.ChunkBytes = chunkBytes
	opts.CacheBytes = cacheBytes
	opts.Durability = durable
	opts.FS = fs
	return arrayvers.Open(dir, opts)
}

func pinWritePlane(w io.Writer, pl arrayvers.Plane) error { return wire.WritePlane(w, pl) }

func pinReadPlane(r io.Reader) (arrayvers.Plane, error) {
	return wire.ReadPlane(r, wire.DefaultMaxFrameBytes)
}

func pinEncodePayload(p arrayvers.Payload) ([]byte, error) { return wire.EncodePayload(p) }

func pinDecodePayload(blob []byte) (arrayvers.Payload, error) { return wire.DecodePayload(blob) }

func pinPackSigned(vs []int64, width int) []byte { return bitpack.PackSigned(vs, width) }

func pinUnpackSigned(buf []byte, n, width int) ([]int64, error) {
	return bitpack.UnpackSigned(buf, n, width)
}

func pinDeltaEncode(target, base *arrayvers.Dense) ([]byte, error) {
	return delta.Encode(arrayvers.DeltaHybrid, target, base)
}

func pinDeltaApply(blob []byte, base *arrayvers.Dense) (*arrayvers.Dense, error) {
	return delta.Apply(blob, base)
}

// chunker cuts a square int32 plane the way the store does.
type chunker struct{ c *chunk.Chunker }

func pinChunker(side int) (chunker, error) {
	c, err := chunk.New([]int64{int64(side), int64(side)}, 4, chunkBytes)
	return chunker{c}, err
}

func (c chunker) origins() [][]int64 { return c.c.All() }

func (c chunker) extract(a *arrayvers.Dense, origin []int64) (*arrayvers.Dense, error) {
	return c.c.Extract(a, origin)
}

func (c chunker) assemble(dst *arrayvers.Dense, origin []int64, part *arrayvers.Dense) error {
	return c.c.Assemble(dst, origin, part)
}

// chunkCache is the store's decoded-chunk LRU, keyed by a counter.
type chunkCache struct{ c *cache.Cache }

func pinCache(maxBytes int64) chunkCache { return chunkCache{cache.New(maxBytes)} }

func cacheKey(i int) cache.Key { return cache.Key{Array: "probe", Version: i, Chunk: "0.0"} }

func (c chunkCache) put(i int, v *arrayvers.Dense) bool { return c.c.Put(cacheKey(i), v) }

func (c chunkCache) get(i int) bool {
	_, ok := c.c.Get(cacheKey(i))
	return ok
}

// pinWriteSync writes data to a new file through fsio.OS and returns how
// long the Sync alone took.
func pinWriteSync(path string, data []byte) (time.Duration, error) {
	f, err := fsio.OS.Create(path)
	if err != nil {
		return 0, err
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		return 0, err
	}
	t0 := time.Now()
	err = f.Sync()
	d := time.Since(t0)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return d, err
}

// pinMap maps a file and unmaps it again, returning its length.
func pinMap(path string) (int, error) {
	m, err := fsio.Map(path)
	if err != nil {
		return 0, err
	}
	n := len(m.Bytes())
	return n, m.Close()
}

func pinMatmat(versions []*arrayvers.Dense, sample int) (*matmat.Matrix, error) {
	return matmat.Compute(versions, matmat.Options{Sample: sample, Seed: 1})
}

func pinAlgorithm2(mm *matmat.Matrix) int { return len(layout.Algorithm2(mm).Parent) }

// countingFS is fsio.OS with every write, byte and sync counted; the
// embedded ingest replay passes it as Options.FS.
type countingFS struct {
	fsio.FS
	writes, bytes, syncs atomic.Int64
}

func pinCountingFS() *countingFS { return &countingFS{FS: fsio.OS} }

func (c *countingFS) Append(path string) (fsio.File, error) { return c.wrap(c.FS.Append(path)) }

func (c *countingFS) Create(path string) (fsio.File, error) { return c.wrap(c.FS.Create(path)) }

func (c *countingFS) SyncDir(path string) error {
	c.syncs.Add(1)
	return c.FS.SyncDir(path)
}

func (c *countingFS) wrap(f fsio.File, err error) (fsio.File, error) {
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

type countingFile struct {
	fsio.File
	fs *countingFS
}

func (f *countingFile) Write(p []byte) (int, error) {
	f.fs.writes.Add(1)
	f.fs.bytes.Add(int64(len(p)))
	return f.File.Write(p)
}

func (f *countingFile) Sync() error {
	f.fs.syncs.Add(1)
	return f.File.Sync()
}
