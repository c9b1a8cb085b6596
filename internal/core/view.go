package core

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// readView is one array's metadata as seen by a single query. Readers
// build a view under Store.mu and then decode chunks against it with no
// store lock held, so concurrent queries (and inserts) never serialize
// on metadata access.
//
// The immutable arrayState fields (dir, Schema, SparseRep, Fill,
// ChunkSide) are read through the shared pointer; the view owns only
// its id list and byID map, whose records it shares with the committed
// document.
type readView struct {
	st    *arrayState
	epoch uint64
	// dir pins the chunk generation the snapshot reads from: a
	// destructive rewrite commits a new generation directory, and a
	// reader must keep decoding the one its metadata references.
	dir string
	// ids lists the live version IDs in version order (the order
	// Reorganize and the materialization matrix use).
	ids []int
	// noLookup and noAdmit keep reads through this view from reading and
	// writing the store-wide LRU: bulk scans set both (and memoize in a
	// chunkCache); a staging view reads its delta base from the LRU but
	// sets noAdmit, since its staged ids must never show there.
	noLookup, noAdmit bool
	// byID maps each live version id to its record. The records are
	// the committed document's own, shared, never copied: a committed
	// versionMeta is never edited in place — a mutator clones it
	// (versionMeta.clone) and swaps the pointer in its staged document —
	// so a view stays coherent after Store.mu is released. A staging
	// view adds its staged records to its own map.
	byID map[int]*versionMeta
}

// viewLocked builds a readView for st. Callers hold Store.mu (read or
// write). It copies only the live ids and their record pointers (see
// readView.byID for why sharing the records is safe), so a snapshot
// costs O(versions), independent of attribute and chunk count.
func (s *Store) viewLocked(st *arrayState) *readView {
	v := &readView{st: st, epoch: s.epochs[st.Schema.Name], dir: st.chunksDir()}
	v.ids = make([]int, 0, len(st.Versions))
	v.byID = make(map[int]*versionMeta, len(st.Versions))
	for _, vm := range st.Versions {
		if !vm.Deleted {
			v.ids = append(v.ids, vm.ID)
			v.byID[vm.ID] = vm
		}
	}
	return v
}

// snapshot takes the store lock briefly to view the named array's
// metadata and acquire its I/O read latch, then releases the store lock.
// The returned release func must be called when the query is done. The
// latch is acquired while still under Store.mu, which is what makes it
// race-free: a destructive mutator installs its change under Store.mu
// and only then requests the exclusive latch (with Store.mu released),
// so a reader that snapshotted the old state already holds the latch
// the mutator drains.
//
// The view is memoized on the arrayState between mutations: views are
// immutable once built, so concurrent readers share one, and repeated
// selects skip building it entirely. A mutator clears the memo
// and installs its change in one Store.mu section, so a reader can never
// store a view that predates a mutation after that mutation's clear.
func (s *Store) snapshot(name string) (*readView, func(), error) {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, nil, ErrClosed
	}
	st, ok := s.arrays[name]
	if !ok {
		s.mu.RUnlock()
		return nil, nil, fmt.Errorf("core: no array %q", name)
	}
	v := st.cachedView.Load()
	if v == nil || v.epoch != s.epochs[name] {
		v = s.viewLocked(st)
		st.cachedView.Store(v)
	}
	st.ioMu.RLock()
	s.mu.RUnlock()
	return v, st.ioMu.RUnlock, nil
}

// snapshotUncached is snapshot for bulk scans: it returns a private
// (never memoized) view whose reads bypass the store-wide chunk cache,
// so decoding every version of an array leaves the LRU's hot working
// set untouched.
func (s *Store) snapshotUncached(name string) (*readView, func(), error) {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, nil, ErrClosed
	}
	st, ok := s.arrays[name]
	if !ok {
		s.mu.RUnlock()
		return nil, nil, fmt.Errorf("core: no array %q", name)
	}
	v := s.viewLocked(st)
	v.noLookup, v.noAdmit = true, true
	st.ioMu.RLock()
	s.mu.RUnlock()
	return v, st.ioMu.RUnlock, nil
}

// viewOfMeta builds a readView over a staged metadata document: reads
// resolve against the staged version set and the generation it names.
// Staged versions' payloads are already on disk (appends precede the
// commit), so the view can decode them before the install. It bypasses
// the store-wide LRU both ways: it has no epoch to look up with, and
// staged version ids must never become visible through the LRU.
func (s *Store) viewOfMeta(st *arrayState, m *arrayMeta) *readView {
	v := &readView{
		st:       st,
		dir:      filepath.Join(st.dir, chunksDirName(m.Gen)),
		noLookup: true, noAdmit: true,
		byID: make(map[int]*versionMeta),
	}
	for _, vm := range m.Versions {
		if vm.Deleted {
			continue
		}
		v.ids = append(v.ids, vm.ID)
		v.byID[vm.ID] = vm
	}
	return v
}

// mutateLocked marks a metadata mutation: it drops the memoized read
// view. Callers hold Store.mu exclusively.
func (st *arrayState) mutateLocked() {
	st.cachedView.Store(nil)
}

func (v *readView) version(id int) (*versionMeta, error) {
	if vm, ok := v.byID[id]; ok {
		return vm, nil
	}
	return nil, fmt.Errorf("core: array %q has no version %d", v.st.Schema.Name, id)
}

// forEachLimit runs fn(0..n-1) on up to `workers` goroutines and returns
// the first error. Remaining indices are skipped once an error occurs
// (in-flight calls run to completion) or ctx is cancelled — an
// abandoned request stops burning the worker pool at the next chunk
// boundary. workers <= 1 degenerates to a plain serial loop with zero
// goroutine overhead.
func forEachLimit(ctx context.Context, n, workers int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next    atomic.Int64
		failed  atomic.Bool
		errMu   sync.Mutex
		firstEr error
		wg      sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				err := ctx.Err()
				if err == nil {
					err = fn(i)
				}
				if err != nil {
					errMu.Lock()
					if firstEr == nil {
						firstEr = err
					}
					errMu.Unlock()
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstEr
}
