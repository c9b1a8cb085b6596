// Package core is the lockorder fixture for the latch sets the store's
// mutators actually take — all of them in the documented order, so the
// analyzer must stay silent: no descending acquisition, no cycle, no
// commit under Store.mu. (The violations live in ../../lockorder; mixing them in here would close
// cycles with these legitimate edges.)
package core

import "sync"

type arrayState struct {
	reorgMu  sync.Mutex
	writeMu  sync.Mutex
	commitMu sync.Mutex
	ioMu     sync.RWMutex
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

// DeleteVersion: the rewrite latch, then the write latch and the
// metadata writer latch. The store lock is taken only to snapshot —
// pinning the generation with the I/O read latch before it drops — and
// to install; the re-encode, sync and commit run with it released, and
// the reader drain comes after
func (s *Store) deleteVersion() {
	st, _ := s.lockArray("x", func(st *arrayState) []*sync.Mutex {
		return []*sync.Mutex{&st.reorgMu, &st.writeMu, &st.commitMu}
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
	st.commitMu.Unlock()
	st.writeMu.Unlock()
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

// lockWrite is the pure acquirer of one array's write latch; its held
// set reaches callers through the summary
func (s *Store) lockWrite(name string) *arrayState {
	st, _ := s.lockArray(name, func(st *arrayState) []*sync.Mutex {
		return []*sync.Mutex{&st.writeMu}
	})
	return st
}

// Write: every array's write latch in name order, a snapshot per array
// to stage, every commit latch in the same order, the write latches
// handed back, then the commit record and the install
func (s *Store) write() {
	a := s.lockWrite("a")
	b := s.lockWrite("b") // another array: the sorted-name protocol, not rank
	s.mu.RLock()
	a.ioMu.RLock()
	s.mu.RUnlock()
	a.ioMu.RUnlock()
	a.commitMu.Lock()
	b.commitMu.Lock()
	a.writeMu.Unlock()
	b.writeMu.Unlock()
	_ = s.man.commit()
	s.mu.Lock()
	s.mu.Unlock()
	b.commitMu.Unlock()
	a.commitMu.Unlock()
}

// a rewrite builds holding reorgMu alone, then publishes under the
// write and commit latches — carrying the versions written meanwhile
// (their frames read, appended, and the files that took them synced)
// and committing — and drains readers with both released
func (s *Store) rewritePublish(st *arrayState) {
	st.reorgMu.Lock()
	defer st.reorgMu.Unlock()
	st.writeMu.Lock()
	st.commitMu.Lock()
	_ = s.readFrames()
	_ = s.syncFile()
	_ = s.commitMeta()
	s.mu.Lock()
	s.mu.Unlock()
	st.commitMu.Unlock()
	st.writeMu.Unlock()
	st.ioMu.Lock()
	st.ioMu.Unlock()
}

func (s *Store) readFrames() error { return nil }

func (s *Store) syncFile() error { return nil }
