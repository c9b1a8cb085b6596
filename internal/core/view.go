package core

import (
	"context"
	"fmt"
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
	st *arrayState
	// gen is the chunk generation the view reads from; a snapshot's
	// reference keeps its directory in place until the release.
	gen *generation
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
	// versionMeta is never edited in place — a mutator copies it and
	// swaps the pointer in its staged document —
	// so a view stays coherent after Store.mu is released. A staging
	// view adds its staged records to its own map.
	byID map[int]*versionMeta
}

// newest is the k-th newest live version id the view sees (0: the
// head) — a staging view's ids include the versions it staged — or 0.
func (v *readView) newest(k int) int {
	if k >= len(v.ids) {
		return 0
	}
	return v.ids[len(v.ids)-1-k]
}

// generation is one chunk directory of one array as readers see it, a
// value they pin (LevelDB's reference-counted Version). The array holds
// one reference to its current generation; a snapshot takes another
// under Store.mu and its release drops it with one atomic decrement. A
// rewrite's publish and DeleteArray retire it at install, dropping the
// array's reference, and whoever drops the last one cleans it up
// (unpin). Writers take no reference: every path that retires a
// generation holds the array's writeMu, as every writer does.
type generation struct {
	dir string
	// id is store-unique and never reused, even across a drop and a
	// same-name create: it is the Gen of every cache key read from dir.
	id   uint64
	refs atomic.Int64
	// set under Store.mu by retireLocked, read by the last release
	remove string      // the path the last release removes; "" if Close retired it
	next   *generation // the successor it holds a reference on, or nil
	drop   string      // the name of the array a DeleteArray dropped, or ""
}

// newGeneration returns dir as a generation holding its array's
// reference.
func (s *Store) newGeneration(dir string) *generation {
	g := &generation{dir: dir, id: s.genSeq.Add(1)}
	g.refs.Store(1)
	return g
}

// retireLocked ends g's time as its array's current generation. A
// rewrite passes g's successor as next: g holds a reference on it until
// g goes, so an array's generations go oldest first and a drop's
// removal of the array directory never pulls an older generation from
// under its reader. Callers hold Store.mu exclusively and drop the
// array's reference with unpin once it is released.
func (s *Store) retireLocked(g *generation, remove string, next *generation, drop string) {
	g.remove, g.next, g.drop = remove, next, drop
	if next != nil {
		next.refs.Add(1)
	}
	s.retired[g] = true
}

// unpin drops one reference to g, taking no store lock unless it drops
// a retired generation's last: that one removes what g retired, sweeps
// its cache entries, ends a drop, wakes the waiters on released, and
// releases the successor.
func (s *Store) unpin(g *generation) {
	if g.refs.Add(-1) > 0 {
		return
	}
	if g.remove != "" {
		// a failure leaves debris for the next durable open's sweep
		_ = s.fs.RemoveAll(g.remove)
		s.chunkCache.InvalidateGen(g.id)
	}
	s.mu.Lock()
	delete(s.retired, g)
	if g.drop != "" {
		delete(s.dropping, g.drop)
	}
	s.mu.Unlock()
	s.released.Broadcast()
	if g.next != nil {
		s.unpin(g.next)
	}
}

// viewOf builds a readView of the live versions among vms in st's
// current generation. Callers hold Store.mu, or the array's writeMu,
// which keeps the generation current. It copies only the live ids and
// their record pointers (see readView.byID for why sharing the records
// is safe), so a snapshot costs O(versions), independent of attribute
// and chunk count.
func viewOf(st *arrayState, vms []*versionMeta) *readView {
	v := &readView{st: st, gen: st.current, ids: make([]int, 0, len(vms)), byID: make(map[int]*versionMeta, len(vms))}
	for _, vm := range vms {
		if !vm.Deleted {
			v.ids = append(v.ids, vm.ID)
			v.byID[vm.ID] = vm
		}
	}
	return v
}

// snapshot takes the store lock briefly to view the named array's
// metadata and pin its generation, then releases the store lock. The
// returned release func must be called when the query is done. The
// reference is taken under Store.mu: a mutator swaps the generation
// under Store.mu exclusively, so a reader either pinned the old one
// before its retirement or sees the new one.
//
// The view is memoized on the arrayState between mutations: views are
// immutable once built, so concurrent readers share one, and repeated
// selects skip building it entirely. A mutator clears the memo
// and installs its change in one Store.mu section, so a reader can never
// store a view that predates a mutation after that mutation's clear.
func (s *Store) snapshot(name string) (*readView, func(), error) { return s.pin(name, false) }

// snapshotUncached is snapshot for bulk scans: it returns a private
// (never memoized) view whose reads bypass the store-wide chunk cache,
// so decoding every version of an array leaves the LRU's hot working
// set untouched.
func (s *Store) snapshotUncached(name string) (*readView, func(), error) { return s.pin(name, true) }

func (s *Store) pin(name string, uncached bool) (*readView, func(), error) {
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
	var v *readView
	if uncached {
		v = viewOf(st, st.Versions)
		v.noLookup, v.noAdmit = true, true
	} else if v = st.cachedView.Load(); v == nil {
		v = viewOf(st, st.Versions)
		st.cachedView.Store(v)
	}
	g := v.gen
	g.refs.Add(1)
	s.mu.RUnlock()
	return v, func() { s.unpin(g) }, nil
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
