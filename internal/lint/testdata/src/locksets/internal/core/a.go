// Package core is the lockorder fixture for the latch sets the store's
// mutators actually take — all of them in the documented order, so the
// analyzer must stay silent: no descending acquisition, no cycle, no
// commit under Store.mu. (The violations live in ../../lockorder; mixing them in here would close
// cycles with these legitimate edges.)
package core

import "sync"

type arrayState struct {
	reorgMu  sync.Mutex
	commitMu sync.Mutex
	writeMu  sync.Mutex
	ioMu     sync.RWMutex
	pendMu   sync.Mutex
}

type Store struct {
	mu     sync.RWMutex
	arrays map[string]*arrayState
	man    *manifest
}

func (s *Store) lockArray(name string, pick func(st *arrayState) []*sync.Mutex) (*arrayState, error) {
	s.mu.RLock()
	st := s.arrays[name]
	s.mu.RUnlock()
	for _, m := range pick(st) {
		m.Lock()
	}
	return st, nil
}

// DeleteVersion: the rewrite latch (it can invalidate an optimistic
// insert staging, like a rewrite), then the metadata writer latch and
// the write latch. The store lock is taken only to snapshot — pinning
// the generation with the I/O read latch before it drops — and to
// install; the re-encode, sync and commit run with it released, and the
// reader drain comes after
func (s *Store) deleteVersion() {
	st, _ := s.lockArray("x", func(st *arrayState) []*sync.Mutex {
		return []*sync.Mutex{&st.reorgMu, &st.commitMu, &st.writeMu}
	})
	s.mu.RLock()
	st.ioMu.RLock()
	s.mu.RUnlock()
	_ = s.commitMeta()
	st.ioMu.RUnlock()
	s.mu.Lock()
	s.mu.Unlock()
	st.ioMu.Lock()
	st.ioMu.Unlock()
	st.writeMu.Unlock()
	st.commitMu.Unlock()
	st.reorgMu.Unlock()
}

// DeleteArray: the drop record is appended under the metadata writer
// latch alone; the store lock is taken to check and to unpublish, and
// the exclusive I/O latch only after it is released
func (s *Store) deleteArray() {
	st, _ := s.lockArray("x", func(st *arrayState) []*sync.Mutex {
		return []*sync.Mutex{&st.commitMu}
	})
	s.mu.RLock()
	s.mu.RUnlock()
	_ = s.man.commit()
	s.mu.Lock()
	s.mu.Unlock()
	st.ioMu.Lock()
	st.ioMu.Unlock()
	st.commitMu.Unlock()
}

type manifest struct{}

func (m *manifest) commit() error { return nil }

func (s *Store) commitMeta() error { return s.man.commit() }

// lockCommit is the pure acquirer of the commit-latch set (InsertMulti,
// Branch, Merge); its held set reaches callers through the summary
func (s *Store) lockCommit(name string) *arrayState {
	st, _ := s.lockArray(name, func(st *arrayState) []*sync.Mutex {
		return []*sync.Mutex{&st.commitMu, &st.writeMu}
	})
	return st
}

func (s *Store) insertMulti() {
	a := s.lockCommit("a")
	b := s.lockCommit("b") // another array: the sorted-name protocol, not rank
	s.mu.Lock()
	s.mu.Unlock()
	b.writeMu.Unlock()
	b.commitMu.Unlock()
	a.writeMu.Unlock()
	a.commitMu.Unlock()
}

// the contended Reorganize fallback adds the commit-latch set to the
// reorgMu it already holds, then builds and commits
func (s *Store) reorganizeFallback(st *arrayState) {
	st.reorgMu.Lock()
	defer st.reorgMu.Unlock()
	st.commitMu.Lock()
	defer st.commitMu.Unlock()
	st.writeMu.Lock()
	defer st.writeMu.Unlock()
	s.mu.Lock()
	s.mu.Unlock()
	st.ioMu.Lock()
	st.ioMu.Unlock()
}

// the contended insert fallback holds reorgMu and re-runs the ordinary
// attempt: stage under writeMu, then lead a commit through commitMu
func (s *Store) insertFallback(st *arrayState) {
	st.reorgMu.Lock()
	defer st.reorgMu.Unlock()
	st.writeMu.Lock()
	st.pendMu.Lock()
	st.pendMu.Unlock()
	st.writeMu.Unlock()
	st.commitMu.Lock()
	s.mu.Lock()
	s.mu.Unlock()
	st.commitMu.Unlock()
}
