package core

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"

	"arrayvers/internal/array"
	"arrayvers/internal/fsio"
)

// Memory-mapped chunk generations. Committed chunk files are immutable
// at every offset a reader's metadata snapshot can reference (appends
// only grow the tail, rewrites build fresh generation directories), so
// the read path can map them read-only and decode frames straight out
// of the page cache instead of paying a read(2) plus a frame-sized copy
// per chunk.
//
// Lifetime protocol. One mapSet covers one chunk-generation directory
// and starts with a single "live" reference owned by the generation
// itself. Readers never take per-use references: a query pins its
// generation by holding the array's I/O read latch (snapshot acquires
// st.ioMu.RLock), and a generation is only retired under the exclusive
// latch, so every transient use of mapped bytes is bounded by a latch
// the retirer must wait out. The only mapped bytes that outlive a query
// are zero-copy planes inserted into the decoded-chunk cache; each such
// plane holds one counted reference (acquire at Put, release from the
// cache's eviction callback).
//
// Retire (Reorganize, Compact, DeleteArray) drops the live reference
// and registers the directory-removal closure; the closure runs when
// the last reference drains, which defers the unlink past any cached
// mmap-backed planes still resident. Every retire site guarantees,
// before Store.mu is released, that no future cache lookup can return
// a plane of the retired generation (invalidateArrayLocked bumps the
// epoch and sweeps), so a later eviction-triggered teardown can never
// unmap bytes a reader still sees.
type genMaps struct {
	enabled bool
	mu      sync.Mutex
	sets    map[string]*mapSet // live generations only, keyed by dir

	// deferred counts generation removals that outlived their retire
	// call because cached planes still referenced the mapping.
	deferred atomic.Int64
}

func newGenMaps(disabled bool) *genMaps {
	return &genMaps{
		enabled: !disabled && fsio.MapSupported(),
		sets:    make(map[string]*mapSet),
	}
}

// active reports whether the store maps chunk generations at all.
func (gm *genMaps) active() bool { return gm != nil && gm.enabled }

// lookup returns the live mapSet for a chunk-generation directory,
// creating it on first use. Returns nil when mapping is disabled.
// Callers hold the owning array's I/O latch (shared or exclusive), so
// the returned set cannot be retired while they use it.
func (gm *genMaps) lookup(dir string) *mapSet {
	if !gm.active() {
		return nil
	}
	gm.mu.Lock()
	defer gm.mu.Unlock()
	ms := gm.sets[dir]
	if ms == nil {
		ms = &mapSet{gm: gm, dir: dir, files: make(map[string]fsio.Mapping), refs: 1}
		gm.sets[dir] = ms
	}
	return ms
}

// retire removes dir's mapSet from the live table, drops its live
// reference, and arranges for onLast (the directory unlink) to run when
// the final reference drains — immediately, unless cached planes still
// pin the mapping. With mapping inactive or the directory never mapped,
// onLast runs inline, which reduces to the pre-mmap removal behavior.
// Callers hold the array's exclusive I/O latch (or otherwise exclude
// readers), and must make the retired generation's cache entries
// unreachable before new snapshots can start.
func (gm *genMaps) retire(dir string, onLast func()) {
	var ms *mapSet
	if gm.active() {
		gm.mu.Lock()
		ms = gm.sets[dir]
		delete(gm.sets, dir)
		gm.mu.Unlock()
	}
	if ms == nil {
		onLast()
		return
	}
	ms.mu.Lock()
	ms.retired = true
	ms.onLast = onLast
	deferredUnlink := ms.refs > 1
	ms.mu.Unlock()
	if deferredUnlink {
		gm.deferred.Add(1)
	}
	ms.release()
}

// closeAll force-closes every live mapping. Called from Store.Close
// after all array latches have drained and the decoded-chunk cache has
// been swept, so no reference can be in use.
func (gm *genMaps) closeAll() {
	if gm == nil {
		return
	}
	gm.mu.Lock()
	sets := gm.sets
	gm.sets = make(map[string]*mapSet)
	gm.mu.Unlock()
	for _, ms := range sets {
		ms.mu.Lock()
		ms.retired = true
		ms.refs = 0
		maps := ms.takeMappingsLocked()
		ms.mu.Unlock()
		for _, m := range maps {
			_ = m.Close()
		}
	}
}

// mapSet is the set of read-only mappings over one chunk-generation
// directory, one mapping per chunk file (plus superseded shorter
// mappings of files that grew, kept until teardown because cached
// planes may alias them).
type mapSet struct {
	gm  *genMaps
	dir string

	mu      sync.Mutex
	files   map[string]fsio.Mapping
	stale   []fsio.Mapping
	refs    int // live ref (until retire) + one per cached zero-copy plane
	retired bool
	closed  bool
	onLast  func()
}

// read returns the validated payload of one chunk frame as a sub-slice
// of the file's mapping. The caller must hold the array's I/O latch for
// as long as it touches the returned bytes, unless it also takes a
// counted reference (acquire) before the latch is released.
func (ms *mapSet) read(s *Store, e chunkEntry) ([]byte, error) {
	need := e.Offset + frameLen(e.Length)
	ms.mu.Lock()
	if ms.retired {
		ms.mu.Unlock()
		return nil, fmt.Errorf("core: chunk generation %s is retired", filepath.Base(ms.dir))
	}
	m := ms.files[e.File]
	if m == nil || int64(len(m.Bytes())) < need {
		nm, err := fsio.Map(filepath.Join(ms.dir, e.File))
		if err != nil {
			ms.mu.Unlock()
			return nil, err
		}
		if int64(len(nm.Bytes())) < need {
			// the frame the metadata references is committed, so the file
			// must already be at least this long; a short file is real
			// corruption, but let the plain read path produce the error
			_ = nm.Close()
			ms.mu.Unlock()
			return nil, fmt.Errorf("core: chunk file %s shorter than mapped frame %d+%d", e.File, e.Offset, e.Length)
		}
		if m != nil {
			// the shorter mapping may back cached planes; keep it alive
			// until the whole set tears down
			ms.stale = append(ms.stale, m)
		}
		ms.files[e.File] = nm
		m = nm
	}
	data := m.Bytes()
	ms.mu.Unlock()
	blob, err := parseFrame(data[e.Offset:need], e.Length)
	if err != nil {
		return nil, fmt.Errorf("core: chunk %s@%d: %w", e.File, e.Offset, err)
	}
	s.addMmapRead(e.Length)
	return blob, nil
}

// acquire takes a counted reference for a cached zero-copy plane. It
// fails only on a set whose references already drained.
func (ms *mapSet) acquire() bool {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if ms.refs <= 0 {
		return false
	}
	ms.refs++
	return true
}

// release drops one reference; the last one out unmaps every file and
// runs the retire closure (the deferred directory unlink).
func (ms *mapSet) release() {
	ms.mu.Lock()
	if ms.refs > 0 {
		ms.refs--
	}
	last := ms.refs == 0 && !ms.closed
	var maps []fsio.Mapping
	var onLast func()
	if last {
		ms.closed = true
		maps = ms.takeMappingsLocked()
		onLast = ms.onLast
		ms.onLast = nil
	}
	ms.mu.Unlock()
	if !last {
		return
	}
	for _, m := range maps {
		_ = m.Close()
	}
	if onLast != nil {
		onLast()
	}
}

func (ms *mapSet) takeMappingsLocked() []fsio.Mapping {
	maps := make([]fsio.Mapping, 0, len(ms.files)+len(ms.stale))
	for _, m := range ms.files {
		maps = append(maps, m)
	}
	maps = append(maps, ms.stale...)
	ms.files = nil
	ms.stale = nil
	return maps
}

// mmapDense is a decoded-chunk cache value whose cell bytes alias a
// mapped chunk file instead of the heap: a materialized (delta-chain
// root) chunk stored uncompressed needs no decode at all, so caching it
// costs no copy. Each holds one counted reference on its mapSet,
// released by the cache's eviction callback.
type mmapDense struct {
	*array.Dense
	set *mapSet
}

// readBlobShared fetches a chunk payload like readBlob, preferring the
// generation's read-only mapping; the plain read path is the fallback
// whenever mapping is disabled, unsupported, or fails. A non-nil mapSet
// return means the payload aliases the mapping and is only valid while
// the caller holds the array's I/O latch or a counted reference.
func (s *Store) readBlobShared(dir string, e chunkEntry) ([]byte, *mapSet, error) {
	if ms := s.maps.lookup(dir); ms != nil {
		if blob, err := ms.read(s, e); err == nil {
			return blob, ms, nil
		}
	}
	blob, err := s.readBlob(dir, e)
	return blob, nil, err
}
