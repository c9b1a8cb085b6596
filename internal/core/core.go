// Package core implements the paper's primary contribution: the
// no-overwrite versioned storage manager for array data (§II). A Store
// manages named arrays, each with a tree (or, with Merge, a DAG) of
// versions. Committed versions are immutable; every update creates a new
// version.
//
// The insert path analyzes each new version so it can be encoded as a
// delta off an existing version, splits it into fixed-stride chunks,
// optionally compresses each chunk, and records the chunk locations in
// the version metadata (Fig. 1). The select path looks up the chunks
// overlapping the query region, reads and decompresses them, unwinds the
// delta chains, and assembles the result array (Fig. 2).
package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"arrayvers/internal/array"
	"arrayvers/internal/cache"
	"arrayvers/internal/chunk"
	"arrayvers/internal/compress"
	"arrayvers/internal/fsio"
)

// Options configures a Store.
type Options struct {
	// ChunkBytes is the target uncompressed chunk size (the paper's
	// compile-time parameter, 10 MB by default).
	ChunkBytes int64
	// Codec compresses chunk payloads after delta encoding (§III-B.2).
	Codec compress.Codec
	// AutoDelta makes Insert compare each new version against the newest
	// version and delta-encode it when that is smaller ("delta-ing is
	// performed automatically", §II-A). When false, every version is
	// materialized.
	AutoDelta bool
	// Parallelism bounds the worker pool the select and insert hot paths
	// fan chunk work out on (read→decompress→delta-unwind on select,
	// encode→compress on insert). Zero or negative means GOMAXPROCS; 1
	// runs fully serial.
	Parallelism int
	// CacheBytes bounds the store-wide LRU of reconstructed chunks shared
	// across queries. Zero disables the cache (every select re-walks its
	// delta chains, the paper's Fig. 2 behavior); the cache trades memory
	// for skipping chain walks on repeated and overlapping version reads.
	CacheBytes int64
	// Durability makes every commit crash-safe: chunk writes are fsynced
	// (file and, when files were created, directory) before the metadata
	// commit, the commit itself is an fsynced manifest-log append, and
	// Open runs crash recovery (see DESIGN.md "Write path"). Without it
	// the same appends happen unsynced and Open never repairs anything.
	// Off by default so I/O accounting matches the paper's tables;
	// avstored turns it on.
	Durability bool
	// FS overrides the filesystem used by every write path; nil means the
	// real OS. Tests inject fsio.Fault here to crash the store at an
	// arbitrary write/sync/rename step.
	FS fsio.FS
}

// DefaultCacheBytes is a reasonable decoded-chunk cache budget for
// interactive workloads (opt-in via Options.CacheBytes; the default
// Options keep the cache off so I/O accounting matches the paper's
// tables).
const DefaultCacheBytes = 256 << 20

// DefaultOptions mirrors the paper's defaults at full scale.
func DefaultOptions() Options {
	return Options{
		ChunkBytes: chunk.DefaultChunkBytes,
		Codec:      compress.None,
		AutoDelta:  true,
	}
}

func (o *Options) fillDefaults() {
	if o.ChunkBytes <= 0 {
		o.ChunkBytes = chunk.DefaultChunkBytes
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.FS == nil {
		o.FS = fsio.OS
	}
}

// Store is a single-node versioned storage system rooted at a directory.
//
// Locking: mu guards the array map and all version metadata. The select
// paths hold it only long enough to snapshot one array's metadata (see
// readView); chunk I/O and delta unwinding then proceed without it, so
// reads run concurrently with each other and with inserts. Mutators
// hold it just as briefly — to snapshot and to install — never across
// I/O (lockorder checks this). A snapshot pins the array's chunk
// generation (see generation); a rewrite or DeleteArray retires it at
// install and never waits for readers: the last reader's release
// removes the retired files. A read opens the chunk files it touches
// and closes them before it releases its pin, so the Store holds no
// file handle of its own.
type Store struct {
	mu     sync.RWMutex
	dir    string
	opts   Options
	fs     fsio.FS // all write paths go through this (Options.FS)
	closed bool    // set by Close; guarded by mu
	arrays map[string]*arrayState
	// man is the store-wide manifest log — THE commit point of every
	// metadata mutation (see manifest.go). Set once by Open, immutable
	// afterwards.
	man *manifest
	// creating reserves the names of arrays whose CreateArray is
	// committing with Store.mu released; dropping holds the names of
	// arrays a DeleteArray has unpublished but not yet removed; retired
	// holds the retired generations still pinned. released (on mu) is
	// signalled as each of those goes and as each creation ends. Guarded
	// by mu.
	creating map[string]bool
	dropping map[string]bool
	retired  map[*generation]bool
	released sync.Cond
	// genSeq numbers generations; an id is never reused.
	genSeq atomic.Uint64

	// chunkCache is the store-wide decoded-chunk LRU (nil when disabled).
	chunkCache *cache.Cache

	// healthMu guards the degraded-mode state (see health.go). It is a
	// leaf lock: it may be taken while holding Store.mu, never the other
	// way around.
	healthMu      sync.Mutex
	degraded      map[string]degradedInfo // array name -> why it is read-only
	storeDegraded *degradedInfo           // non-nil while the whole store is read-only (ENOSPC)
	healer        *healer                 // background heal prober; armed by the first degrade
	healerStopped bool                    // Close ran; never re-arm

	// stats holds the cumulative I/O counters, each an atomic: counting
	// takes no lock.
	stats ioCounters
	// recovery is what Open-time crash recovery repaired; immutable after
	// Open, merged into Stats() and never cleared by ResetStats.
	recovery RecoveryStats

	// prof is the always-on stage-level instrumentation (latency/byte
	// histograms for the select and commit pipelines, decode-pool
	// gauge), exposed through Metrics(). All its state is atomic — the
	// hot paths record into it without taking any store lock.
	prof *profile
	// rw counts what rewrites encode, carry and hold decoded.
	rw rewriteCounters

	// clock returns commit timestamps; replaceable in tests.
	clock func() time.Time
}

// RecoveryStats summarizes what Open-time crash recovery repaired (only
// populated when Options.Durability is on).
type RecoveryStats struct {
	// TruncatedFiles/TruncatedBytes count chunk files whose torn or
	// garbage tails past the last committed frame were cut off.
	TruncatedFiles int64
	TruncatedBytes int64
	// RemovedFiles counts filesystem entries swept: metadata tmp files,
	// stale chunk generations, orphaned chunk files from uncommitted
	// inserts, and half-created array directories.
	RemovedFiles int64
	// DroppedVersions counts versions dropped because their chunk data
	// did not survive — zero for any store written with Durability on,
	// since the metadata commit point orders after the data sync.
	DroppedVersions int64
}

// IOStats counts storage-level activity since the last Reset. The cache
// counters cover the store-wide decoded-chunk LRU: CacheBytes and
// CacheEntries are current residency, the rest are cumulative. Each
// field is one counter, and every surface names it after the field:
// `avstore stats` prints BytesRead as bytes_read, /metrics as
// avstored_store_bytes_read (trace.Fields).
type IOStats struct {
	BytesRead int64
	// BytesWritten and ChunksWritten count the payloads of every frame
	// appended to a data log: written, re-encoded, rewritten, and copied
	// by Compact and a rewrite's carry-forward.
	BytesWritten int64
	ChunksRead   int64
	// ChunkPreads counts the reads that fetched those ChunksRead frames:
	// one per frame for a materialized root or a log-resident chain, one
	// per run for the delta frames of a rewritten chain walk.
	ChunkPreads   int64
	ChunksWritten int64

	CacheHits      int64
	CacheMisses    int64
	CacheEvictions int64
	// CacheRejected counts decoded chunks too large to admit (bigger
	// than 1/16 of CacheBytes); a climbing value means the budget is too
	// small for the workload's chunks.
	CacheRejected int64
	CacheBytes    int64
	CacheEntries  int64

	// Recovery* mirror RecoveryStats: what Open-time crash recovery
	// repaired. Fixed at Open; ResetStats leaves them alone.
	RecoveryTruncatedFiles  int64
	RecoveryTruncatedBytes  int64
	RecoveryRemovedFiles    int64
	RecoveryDroppedVersions int64

	// GroupCommits counts the commit records writes appended (one per
	// Write, Branch or Merge); GroupCommitVersions counts the versions
	// they installed, so GroupCommitVersions/GroupCommits is the mean
	// number of versions per commit record.
	GroupCommits        int64
	GroupCommitVersions int64
	// ManifestRecords counts metadata commits through the store-wide
	// manifest log; ManifestAppends counts the physical log appends
	// that carried them, so ManifestRecords/ManifestAppends is the
	// cross-array coalescing factor. ManifestFsyncs counts log fsyncs
	// (equal to appends under Durability); ManifestRotations counts
	// snapshot rotations.
	ManifestRecords   int64
	ManifestAppends   int64
	ManifestFsyncs    int64
	ManifestRotations int64
	// DataFsyncs counts chunk-file fsyncs: one per array a durable write
	// commits (its data log), one per file a rewrite builds.
	DataFsyncs int64
	// InsertOrphanFiles/InsertOrphanBytes count chunk blobs written by a
	// failed insert and reclaimed at the failure site (removed files and
	// truncated chain-file tails), instead of dangling until a durable
	// reopen's recovery sweep or a Compact.
	InsertOrphanFiles int64
	InsertOrphanBytes int64

	// DegradedEntered/DegradedHealed count transitions into and out of
	// degraded read-only mode (array-level and store-wide); the
	// difference is the number of open incidents. DegradedArrays and
	// StoreDegraded are current gauges (ResetStats leaves the live state
	// alone, so they reappear on the next Stats call while degraded).
	// WritesRejectedDegraded counts mutations refused with ErrDegraded.
	DegradedEntered        int64
	DegradedHealed         int64
	DegradedArrays         int64
	StoreDegraded          int64
	WritesRejectedDegraded int64

	// MmapReads is always zero: the store reads every chunk frame with
	// pread and maps nothing. The field stays for readers that still
	// compute a mapped-read share; no counter surface prints it.
	MmapReads int64 `metric:"-"`
}

// ErrFormat is returned (wrapped) by Open for a directory whose on-disk
// format is not storeFormat: a CURRENT carrying another number, an
// array whose chunks predate the checksummed frame, or per-array
// versions.json metadata without a CURRENT. The message names the
// format found and the one expected. Open refuses such a directory
// before writing a byte to it.
var ErrFormat = errors.New("core: unsupported on-disk format")

// formatError wraps ErrFormat for a directory in format found.
func formatError(found string) error {
	return fmt.Errorf("%w: found %s; want format %d", ErrFormat, found, storeFormat)
}

// Open creates or reopens a store rooted at dir. The CURRENT pointer in
// the root names the live manifest generation; Open replays its
// snapshot plus log to rebuild every array (see manifest.go). A
// directory without CURRENT is a new store and gets an empty manifest —
// unless it holds per-array versions.json metadata. A directory in any
// format but storeFormat fails with ErrFormat before anything is
// written. With Options.Durability on, Open also runs crash recovery:
// it sweeps commit leftovers (stale manifest generations, unreferenced
// array directories, stale chunk generations, orphaned chunk files),
// truncates torn chunk-file and manifest-log tails, and reconciles the
// version metadata against the payloads that survived; what it
// repaired is reported through Stats().
func Open(dir string, opts Options) (*Store, error) {
	opts.fillDefaults()
	s := &Store{
		dir:        dir,
		opts:       opts,
		fs:         opts.FS,
		arrays:     make(map[string]*arrayState),
		creating:   make(map[string]bool),
		dropping:   make(map[string]bool),
		retired:    make(map[*generation]bool),
		chunkCache: cache.New(opts.CacheBytes),
		degraded:   make(map[string]degradedInfo),
		prof:       newProfile(),
		clock:      time.Now,
	}
	s.released.L = &s.mu
	if err := s.openManifestStore(); err != nil {
		return nil, err
	}
	return s, nil
}

// openManifestStore replays the manifest (creating an empty one for a
// new store) and, when durable, sweeps root debris and runs per-array
// crash recovery.
func (s *Store) openManifestStore() error {
	_, err := os.Stat(filepath.Join(s.dir, currentFile))
	switch {
	case err == nil:
		s.man, err = openManifest(s)
	case !errors.Is(err, os.ErrNotExist):
		return fmt.Errorf("core: stat %s: %w", currentFile, err)
	case hasLegacyMeta(s.dir):
		return fmt.Errorf("core: open %s: %w", s.dir, formatError("per-array "+metaFile+", no "+currentFile))
	default:
		s.man, err = createManifest(s)
	}
	if err != nil {
		return err
	}
	for name, doc := range s.man.state {
		st := &arrayState{arrayMeta: *doc, dir: filepath.Join(s.dir, name)}
		st.current = s.newGeneration(st.chunksDir())
		s.arrays[name] = st
	}
	if !s.opts.Durability {
		return nil
	}
	if err := s.man.sweepRootLocked(); err != nil {
		return fmt.Errorf("core: manifest sweep: %w", err)
	}
	t0 := time.Now()
	if err := s.recoverLocked(); err != nil {
		return fmt.Errorf("core: crash recovery: %w", err)
	}
	s.prof.recoveryNanos.Store(time.Since(t0).Nanoseconds())
	return nil
}

// metaFile is the per-array metadata document of the format before the
// manifest log. Open refuses a directory that has one and no CURRENT;
// in a manifest store it is debris recovery sweeps.
const metaFile = "versions.json"

// hasLegacyMeta reports whether any directory under dir carries a
// metaFile. It never reads the file.
func hasLegacyMeta(dir string) bool {
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if _, err := os.Stat(filepath.Join(dir, e.Name(), metaFile)); err == nil {
			return true
		}
	}
	return false
}

// ErrClosed is returned (wrapped) by operations attempted after Close;
// match it with errors.Is.
var ErrClosed = fmt.Errorf("core: store is closed")

// Close shuts the store down: it marks the store closed (subsequent
// operations fail with a "store is closed" error), drains every array's
// writers, then waits until no creation is in flight and no generation
// reference remains, so once it returns the store touches the disk no
// more. All metadata is durable at
// the end of each mutation, so Close has nothing to flush; its job is to
// make teardown deterministic for daemons and signal handlers. Close is
// idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	arrays := make([]*arrayState, 0, len(s.arrays))
	for _, st := range s.arrays {
		arrays = append(arrays, st)
	}
	s.mu.Unlock()
	// the heal prober fails fast on the closed flag
	s.stopHealer()
	for _, st := range arrays {
		// an in-flight stager finishes encoding, then its commit fails
		// fast on the closed flag
		st.writeMu.Lock()
		st.writeMu.Unlock()
	}
	// once every creation has ended (a Branch or Merge that lost the
	// race has rolled its array back by then), nothing retires a
	// generation any more: retire every current one in place, keeping
	// its files — drop the array's reference and track the generation
	// while a reader pins it — and wait out the references
	s.mu.Lock()
	for len(s.creating) > 0 {
		s.released.Wait()
	}
	for _, st := range s.arrays {
		if st.current.refs.Add(-1) > 0 {
			s.retired[st.current] = true
		}
	}
	for len(s.retired) > 0 {
		s.released.Wait()
	}
	s.mu.Unlock()
	return nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// ioCounters holds IOStats' cumulative counters, each under the name of
// the IOStats field it fills: Stats copies them and ResetStats zeroes
// them by field, so a counter is declared by its field here and in
// IOStats.
type ioCounters struct {
	BytesRead, BytesWritten, ChunksRead, ChunkPreads, ChunksWritten atomic.Int64
	GroupCommits, GroupCommitVersions                               atomic.Int64
	ManifestRecords, ManifestAppends                                atomic.Int64
	ManifestFsyncs, ManifestRotations, DataFsyncs                   atomic.Int64
	InsertOrphanFiles, InsertOrphanBytes                            atomic.Int64
	DegradedEntered, DegradedHealed, WritesRejectedDegraded         atomic.Int64
}

// each calls fn with every counter and the IOStats field it fills.
func (c *ioCounters) each(fn func(field string, n *atomic.Int64)) {
	v := reflect.ValueOf(c).Elem()
	for i := range v.NumField() {
		fn(v.Type().Field(i).Name, v.Field(i).Addr().Interface().(*atomic.Int64))
	}
}

// Stats returns the I/O and cache counters. Each counter is read
// atomically, but not all at one instant: a Stats beside running
// operations may see one of an operation's counters move and not yet
// another (a read's chunks without its bytes, a commit's records
// without its append).
func (s *Store) Stats() IOStats {
	var out IOStats
	o := reflect.ValueOf(&out).Elem()
	s.stats.each(func(field string, n *atomic.Int64) { o.FieldByName(field).SetInt(n.Load()) })
	cs := s.chunkCache.Stats()
	out.CacheHits = cs.Hits
	out.CacheMisses = cs.Misses
	out.CacheEvictions = cs.Evictions
	out.CacheRejected = cs.Rejected
	out.CacheBytes = cs.Bytes
	out.CacheEntries = cs.Entries
	out.RecoveryTruncatedFiles = s.recovery.TruncatedFiles
	out.RecoveryTruncatedBytes = s.recovery.TruncatedBytes
	out.RecoveryRemovedFiles = s.recovery.RemovedFiles
	out.RecoveryDroppedVersions = s.recovery.DroppedVersions
	s.healthMu.Lock()
	out.DegradedArrays = int64(len(s.degraded))
	if s.storeDegraded != nil {
		out.StoreDegraded = 1
	}
	s.healthMu.Unlock()
	return out
}

// Recovery returns what Open-time crash recovery repaired.
func (s *Store) Recovery() RecoveryStats { return s.recovery }

// ResetStats zeroes the I/O counters and the cache's cumulative counters
// (cache residency is untouched).
func (s *Store) ResetStats() {
	s.stats.each(func(_ string, n *atomic.Int64) { n.Store(0) })
	s.chunkCache.ResetCounters()
}

func (s *Store) addRead(preads, chunks, bytes int64) {
	c := &s.stats
	c.ChunkPreads.Add(preads)
	c.ChunksRead.Add(chunks)
	c.BytesRead.Add(bytes)
}

func (s *Store) addWrite(bytes int64) {
	c := &s.stats
	c.BytesWritten.Add(bytes)
	c.ChunksWritten.Add(1)
}

func (s *Store) addGroupCommit(versions int) {
	c := &s.stats
	c.GroupCommits.Add(1)
	c.GroupCommitVersions.Add(int64(versions))
}

func (s *Store) addInsertOrphans(files, bytes int64) {
	c := &s.stats
	c.InsertOrphanFiles.Add(files)
	c.InsertOrphanBytes.Add(bytes)
}

// --- per-array state and metadata ---

// chunkEntry records where one chunk of one version lives on disk and how
// it is encoded (the Version Metadata of Fig. 1).
type chunkEntry struct {
	File   string `json:"file"`
	Offset int64  `json:"off"`
	Length int64  `json:"len"`
	Codec  uint8  `json:"codec"`
	// Base is the version this chunk is delta'ed against, or -1 when the
	// chunk is materialized.
	Base int `json:"base"`
}

// versionMeta is the per-version metadata record.
type versionMeta struct {
	ID      int       `json:"id"`
	Parents []int     `json:"parents,omitempty"`
	Time    time.Time `json:"time"`
	Kind    string    `json:"kind"` // "insert", "branch", "merge"
	Deleted bool      `json:"deleted,omitempty"`
	// Chunks maps attribute name -> chunk key -> location.
	Chunks map[string]map[string]chunkEntry `json:"chunks"`
}

// BranchRef records the provenance of a branched array.
type BranchRef struct {
	Array   string `json:"array"`
	Version int    `json:"version"`
}

// arrayMeta is the durable metadata of one named array — exactly the
// fields a snapshot or a whole-document manifest op serializes (a
// write's record carries only its arrayAppend). Mutators never edit the
// live copy in place: they build a staged arrayMeta (metaClone), commit
// it, and install it only after the commit succeeds, so a failed commit
// can never leave in-memory metadata referencing an uncommitted version
// (see insert.go "The write path"). Committed documents are immutable:
// the manifest retains the last committed doc of every array for its
// rotation snapshots, and reader views share its version records, which
// is only sound because every later mutation stages against a fresh
// clone.
type arrayMeta struct {
	Schema       array.Schema   `json:"schema"`
	SparseRep    bool           `json:"sparseRep"`
	Fill         int64          `json:"fill"`
	ChunkSide    []int64        `json:"chunkSide"`
	NextID       int            `json:"nextId"`
	Versions     []*versionMeta `json:"versions"`
	BranchedFrom *BranchRef     `json:"branchedFrom,omitempty"`
	// Format stamps the on-disk chunk format; replay refuses any
	// document whose Format is not formatFramed (see ErrFormat).
	Format int `json:"format,omitempty"`
	// Gen numbers the committed chunks directory ("chunks" for 0,
	// "chunks.gN" after N destructive rewrites). Reorganize and Compact
	// build generation N+1 beside the live one and switch with the
	// metadata commit, so a crash can never leave committed metadata
	// pointing at half-rewritten payloads.
	Gen int `json:"gen,omitempty"`
}

// arrayState is one named array: its durable metadata plus the runtime
// latches and staging state.
type arrayState struct {
	arrayMeta

	dir string `json:"-"`

	// current is the committed chunk generation, holding the array's own
	// reference; it changes under Store.mu and writeMu. Appends need no
	// pin: a snapshot only references offsets written before it.
	current *generation

	// reorgMu serializes the array's rewrites and deletes — Reorganize,
	// Compact, DeleteVersion, Heal — without blocking readers or writes.
	// Always acquired first, never while holding Store.mu.
	reorgMu sync.Mutex

	// writeMu is the array's one write latch. Every metadata writer —
	// Write, Branch and Merge, DeleteVersion, a rewrite's publish,
	// DeleteArray, Heal — holds it from its snapshot through its chunk
	// fsyncs, its manifest record and its install, so each write stages
	// against its committed predecessor and takes the next id. Writers
	// run the commit with Store.mu released, so selects and writes to
	// other arrays never stall behind its fsyncs. Lock order: reorgMu <
	// writeMu < Store.mu; the manifest's own latches are leaves
	// below all of these (writers append while holding writeMu, and the
	// manifest never takes a store lock back).
	writeMu sync.Mutex

	// cachedView memoizes the metadata view between mutations, so
	// repeated selects pay O(1) for metadata regardless of version
	// count. Mutators clear it and install their change in one
	// Store.mu section (mutateLocked + installMeta), so no reader can
	// observe the window between mutation and clear; readers rebuild and
	// store it under the read lock.
	cachedView atomic.Pointer[readView]

	// cacheHits and cacheMisses count the array's query-path probes of
	// the store-wide LRU, for its series on /metrics; they live and die
	// with the array.
	cacheHits, cacheMisses atomic.Int64
}

func (st *arrayState) version(id int) (*versionMeta, error) {
	// newest first: the versions callers look up are mostly the head
	for i := len(st.Versions) - 1; i >= 0; i-- {
		if v := st.Versions[i]; v.ID == id && !v.Deleted {
			return v, nil
		}
	}
	return nil, fmt.Errorf("core: array %q has no version %d", st.Schema.Name, id)
}

func (st *arrayState) live() []*versionMeta {
	var out []*versionMeta
	for _, v := range st.Versions {
		if !v.Deleted {
			out = append(out, v)
		}
	}
	return out
}

func (st *arrayState) chunker() (*chunk.Chunker, error) {
	return chunk.NewWithSide(st.Schema.Shape(), st.ChunkSide)
}

// chunksDirName is the name of the committed chunks directory for a
// generation number.
func chunksDirName(gen int) string {
	if gen == 0 {
		return "chunks"
	}
	return fmt.Sprintf("chunks.g%d", gen)
}

// chunksDir returns the array's committed chunks directory.
func (st *arrayState) chunksDir() string {
	return filepath.Join(st.dir, chunksDirName(st.Gen))
}

// metaClone snapshots the array's durable metadata for a staged
// mutation: the version slice header is cloned (pointees are shared —
// a mutator that edits a version clones that versionMeta and swaps the
// pointer in its staged slice). Schema,
// ChunkSide and BranchedFrom are shared as well: they never change after
// creation, and no caller holds them (CreateArray and Info copy).
// Callers hold Store.mu.
func (st *arrayState) metaClone() arrayMeta {
	return arrayMeta{
		Schema:       st.Schema,
		SparseRep:    st.SparseRep,
		Fill:         st.Fill,
		ChunkSide:    st.ChunkSide,
		NextID:       st.NextID,
		Versions:     append([]*versionMeta(nil), st.Versions...),
		BranchedFrom: st.BranchedFrom,
		Format:       st.Format,
		Gen:          st.Gen,
	}
}

// installMeta publishes a committed staged arrayMeta into the live
// state. Only the fields mutators change are written: Schema, ChunkSide,
// and BranchedFrom are immutable after creation and read lock-free
// through reader views, so rewriting them (even with equal values) would
// race those reads. SparseRep/Fill are written only when they actually
// change — the first version fixing the representation — which no
// lock-free reader can observe: a reader only reaches its SparseRep read
// after its snapshot resolved the queried version, and a pre-install
// snapshot holds no versions. Callers hold Store.mu exclusively.
//
//avlint:installer
func (st *arrayState) installMeta(m arrayMeta) {
	if st.SparseRep != m.SparseRep {
		st.SparseRep = m.SparseRep
	}
	if st.Fill != m.Fill {
		st.Fill = m.Fill
	}
	st.NextID = m.NextID
	st.Versions = m.Versions
	st.Gen = m.Gen
}

// saveMeta commits an array's current in-memory metadata; mutators that
// stage changes first commit the staged copy with commitMeta and
// install it only on success.
func (s *Store) saveMeta(st *arrayState) error {
	m := st.metaClone()
	return s.commitMeta(st, &m)
}

// --- array lifecycle (the five basic operations, §II) ---

// CreateArray initializes a named array with the given schema. The first
// payload's representation (dense or sparse) is fixed at first insert.
func (s *Store) CreateArray(schema array.Schema) error {
	if err := schema.Validate(); err != nil {
		return err
	}
	st, err := s.newArrayState(schema, nil)
	if err != nil {
		return err
	}
	return s.publishArray(st, false)
}

// newArrayState builds the state of an array that does not exist yet;
// publishArray creates it.
func (s *Store) newArrayState(schema array.Schema, branchedFrom *BranchRef) (*arrayState, error) {
	ck, err := chunk.New(schema.Shape(), schema.Attrs[0].Type.Size(), s.opts.ChunkBytes)
	if err != nil {
		return nil, err
	}
	st := &arrayState{
		arrayMeta: arrayMeta{
			Schema:       cloneSchema(schema),
			ChunkSide:    ck.Side(),
			NextID:       1,
			BranchedFrom: branchedFrom,
			Format:       formatFramed,
		},
		dir: filepath.Join(s.dir, schema.Name),
	}
	st.current = s.newGeneration(st.chunksDir())
	return st, nil
}

// publishArray creates st's directory, commits its empty document and
// makes the array visible. The directory syncs and the manifest append
// run with Store.mu released; the name is reserved in s.creating
// meanwhile so a concurrent creator of the same name fails instead of
// committing a second document. A creator of a name whose DeleteArray is
// still removing the tree waits for the drop to finish. With hold, a
// published name stays reserved until the caller's endCreate, so Close
// waits for what the caller does next.
func (s *Store) publishArray(st *arrayState, hold bool) error {
	name := st.Schema.Name
	if err := s.writeGate(name); err != nil {
		return err
	}
	s.mu.Lock()
	for s.dropping[name] {
		s.released.Wait()
	}
	var err error
	switch {
	case s.closed:
		err = ErrClosed
	case s.arrays[name] != nil || s.creating[name]:
		err = fmt.Errorf("core: array %q already exists", name)
	default:
		s.creating[name] = true
	}
	s.mu.Unlock()
	if err != nil {
		return err
	}
	err = s.commitNewArray(st)
	s.mu.Lock()
	if err == nil {
		s.arrays[name] = st
	}
	s.mu.Unlock()
	if err != nil || !hold {
		s.endCreate(name)
	}
	return err
}

// endCreate ends the reservation of a name publishArray took.
func (s *Store) endCreate(name string) {
	s.mu.Lock()
	delete(s.creating, name)
	s.mu.Unlock()
	s.released.Broadcast()
}

func (s *Store) commitNewArray(st *arrayState) error {
	fail := func(err error) error {
		// nothing references the array yet, so failures here are benign.
		// An uncertain manifest append has already poisoned the log and
		// degraded the store; the heal's truncation drops the record.
		s.noteDiskPressure(err)
		_ = s.fs.RemoveAll(st.dir)
		return err
	}
	if err := s.fs.MkdirAll(st.chunksDir()); err != nil {
		return fail(err)
	}
	if s.opts.Durability {
		// The directory chain must be durable BEFORE the commit record:
		// the manifest never syncs the array directory again, and chunk
		// fsyncs inside a directory whose entry a crash can drop would
		// silently lose committed data.
		if err := s.fs.SyncDir(st.dir); err != nil {
			return fail(err)
		}
		if err := s.fs.SyncDir(s.dir); err != nil {
			return fail(err)
		}
	}
	if err := s.saveMeta(st); err != nil {
		return fail(err)
	}
	return nil
}

// DeleteArray removes an array and all of its versions. The commit
// point is a single drop record appended to the manifest log; the tree
// removal happens after it, so a crash can only ever leave an
// unreferenced directory for Open-time recovery to sweep — never a
// half-deleted array that resurrects with versions missing. DeleteArray
// does not wait for the array's readers: it retires the generation, and
// the last reader's release removes the tree.
//
// The record is appended holding only the array's writeMu: a write
// runs its metadata commit with Store.mu released, and without this
// latch a delete + same-name recreate could slip into that window,
// landing the old array's staged metadata under the recreated array's
// name.
func (s *Store) DeleteArray(name string) error {
	if err := s.writeGate(name); err != nil {
		return err
	}
	st, err := s.lockWrite(name)
	if err != nil {
		return err
	}
	defer st.writeMu.Unlock()
	return s.dropArray(st, false)
}

// dropArray is DeleteArray for callers that already hold
// st.writeMu (Branch and Merge rolling back their new array). A
// rollback (reserved: the caller still holds the name in s.creating,
// so Close is waiting for it) runs on a closed store too.
func (s *Store) dropArray(st *arrayState, reserved bool) error {
	name := st.Schema.Name
	s.mu.RLock()
	closed, current := s.closed, s.arrays[name] == st
	s.mu.RUnlock()
	switch {
	case closed && !reserved:
		return ErrClosed
	case !current:
		return fmt.Errorf("core: no array %q", name)
	}
	if err := s.man.commit([]manifestOp{{Name: name, Drop: true}}); err != nil {
		s.noteCommitFailure(st, err)
		return err
	}
	// the array stays in s.dropping until the tree is gone, so a same-name
	// CreateArray cannot build its directory where the removal lands;
	// the last release of the retired generation removes it, here when
	// no reader pins it
	s.mu.Lock()
	delete(s.arrays, name)
	s.dropping[name] = true
	g := st.current
	s.retireLocked(g, st.dir, nil, name)
	s.mu.Unlock()
	s.unpin(g)
	return nil
}

// ListArrays returns the names of all arrays, sorted (the List operation,
// §II-C).
func (s *Store) ListArrays() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.arrays))
	for n := range s.arrays {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// VersionInfo is the public view of a version's metadata.
type VersionInfo struct {
	ID      int
	Parents []int
	Time    time.Time
	Kind    string
	// Bytes is the total on-disk payload size of the version's chunks.
	Bytes int64
	// DeltaBases lists the distinct versions this version's chunks are
	// delta'ed against (empty for fully materialized versions).
	DeltaBases []int
}

func versionInfoOf(v *versionMeta) VersionInfo {
	info := VersionInfo{ID: v.ID, Parents: append([]int(nil), v.Parents...), Time: v.Time, Kind: v.Kind}
	bases := map[int]bool{}
	for _, chunks := range v.Chunks {
		for _, e := range chunks {
			info.Bytes += e.Length
			if e.Base >= 0 {
				bases[e.Base] = true
			}
		}
	}
	for b := range bases {
		info.DeltaBases = append(info.DeltaBases, b)
	}
	sort.Ints(info.DeltaBases)
	return info
}

// ArrayInfo is an array's metadata as §II-C lists it: its versions (the
// Get Versions operation), time travel over them (At) and its properties
// ("size, sparsity, etc."). Info takes every field from one snapshot, so
// they agree with each other, and hands out copies: editing an ArrayInfo
// never reaches the store.
type ArrayInfo struct {
	Schema      array.Schema
	SparseRep   bool
	NumVersions int   // len(Versions)
	DiskBytes   int64 // the sum of Versions[i].Bytes
	LogicalSize int64 // uncompressed bytes of one dense version
	ChunkSide   []int64
	NumChunks   int64
	// Versions lists the live versions in commit order; never nil.
	Versions []VersionInfo
	// BranchedFrom is the provenance of a branched array, or nil.
	BranchedFrom *BranchRef
}

// At returns the ID of the newest version committed at or before t
// ("facilities to look up versions that exist at a specific date and
// time", §II-C). IDs are monotonic but commit times need not be, so it
// scans for the greatest qualifying ID.
func (a ArrayInfo) At(t time.Time) (int, error) {
	best := 0
	for _, v := range a.Versions {
		if !v.Time.After(t) && v.ID > best {
			best = v.ID
		}
	}
	if best == 0 {
		return 0, fmt.Errorf("core: array %q has no version at or before %v", a.Schema.Name, t)
	}
	return best, nil
}

// Info returns an array's metadata (§II-C), read under one Store.mu
// section.
func (s *Store) Info(name string) (ArrayInfo, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st, ok := s.arrays[name]
	if !ok {
		return ArrayInfo{}, fmt.Errorf("core: no array %q", name)
	}
	ck, err := st.chunker()
	if err != nil {
		return ArrayInfo{}, err
	}
	info := ArrayInfo{
		Schema:    cloneSchema(st.Schema),
		SparseRep: st.SparseRep,
		ChunkSide: append([]int64(nil), st.ChunkSide...),
		NumChunks: ck.Count(),
		Versions:  []VersionInfo{},
	}
	elem := int64(0)
	for _, a := range st.Schema.Attrs {
		elem += int64(a.Type.Size())
	}
	info.LogicalSize = st.Schema.NumCells() * elem
	for _, v := range st.live() {
		vi := versionInfoOf(v)
		info.Versions = append(info.Versions, vi)
		info.DiskBytes += vi.Bytes
	}
	info.NumVersions = len(info.Versions)
	if ref := st.BranchedFrom; ref != nil {
		info.BranchedFrom = &BranchRef{Array: ref.Array, Version: ref.Version}
	}
	return info, nil
}

// cloneSchema copies a schema's slices, so a schema handed in
// (CreateArray) or out (Info) never aliases the live document, which
// every later commit record copies.
func cloneSchema(sc array.Schema) array.Schema {
	sc.Dims = append([]array.Dimension(nil), sc.Dims...)
	sc.Attrs = append([]array.Attribute(nil), sc.Attrs...)
	return sc
}
