// Package core is the lockorder fixture for the latch sets the store's
// mutators actually take — all of them in the documented order, so the
// analyzer must stay silent: no descending acquisition, no cycle, no
// commit under Store.mu. Every metadata writer holds the array's one
// write latch, writeMu, from its snapshot to its install. (The
// violations live in ../../lockorder; mixing them in here would close
// cycles with these legitimate edges.)
package core

import "sync"

type arrayState struct {
	reorgMu sync.Mutex
	writeMu sync.Mutex
	ioMu    sync.RWMutex
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

// DeleteVersion: the rewrite latch, then the write latch. The store
// lock is taken only to snapshot — pinning the generation with the I/O
// read latch before it drops — and to install; the re-encode, sync and
// commit run with it released, and the reader drain comes after
func (s *Store) deleteVersion() {
	st, _ := s.lockArray("x", func(st *arrayState) []*sync.Mutex {
		return []*sync.Mutex{&st.reorgMu, &st.writeMu}
	})
	defer st.reorgMu.Unlock()
	defer st.writeMu.Unlock()
	s.mu.RLock()
	st.ioMu.RLock()
	s.mu.RUnlock()
	_ = s.syncFile()
	_ = s.commitMeta()
	st.ioMu.RUnlock()
	s.mu.Lock()
	s.mu.Unlock()
	st.ioMu.Lock()
	st.ioMu.Unlock()
}

// Heal: the same two latches, then the probe, the log repair and the
// re-commit with the store lock released
func (s *Store) healArray() {
	st, _ := s.lockArray("x", func(st *arrayState) []*sync.Mutex {
		return []*sync.Mutex{&st.reorgMu, &st.writeMu}
	})
	defer st.reorgMu.Unlock()
	defer st.writeMu.Unlock()
	_ = s.syncFile()
	s.mu.RLock()
	s.mu.RUnlock()
	_ = s.commitMeta()
}

// DeleteArray: the drop record is appended under the write latch; the
// store lock is taken to check and to unpublish, and the exclusive I/O
// latch only after it is released
func (s *Store) deleteArray() {
	st := s.lockWrite("x")
	defer st.writeMu.Unlock()
	s.dropArray(st)
}

// dropArray runs under its caller's write latch
func (s *Store) dropArray(st *arrayState) {
	s.mu.RLock()
	s.mu.RUnlock()
	_ = s.man.commit()
	s.mu.Lock()
	s.mu.Unlock()
	st.ioMu.Lock()
	st.ioMu.Unlock()
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

// Write: every array's write latch in name order, each released by a
// deferred unlock, then write under them all
func (s *Store) writeArrays(names []string) {
	sts := make([]*arrayState, 0, len(names))
	for _, name := range names {
		st := s.lockWrite(name) // another array each time: the sorted-name protocol, not rank
		defer st.writeMu.Unlock()
		sts = append(sts, st)
	}
	s.write(sts)
}

// write: a snapshot per array to stage, then the chunk fsyncs, the
// commit record and the install — the write latches held throughout
func (s *Store) write(sts []*arrayState) {
	for _, st := range sts {
		s.mu.RLock()
		st.ioMu.RLock()
		s.mu.RUnlock()
		st.ioMu.RUnlock()
	}
	_ = s.syncFile()
	_ = s.man.commit()
	s.mu.Lock()
	s.mu.Unlock()
}

// Branch and Merge: the new array's write latch is taken before it is
// published and released by a deferred unlock; a failed write rolls the
// array back with dropArray under the same latch
func (s *Store) createWithVersions(st *arrayState) {
	st.writeMu.Lock()
	defer st.writeMu.Unlock()
	_ = s.man.commit()
	s.mu.Lock()
	s.mu.Unlock()
	s.write([]*arrayState{st})
	s.dropArray(st)
}

// a rewrite builds holding reorgMu alone, then publishes under the
// write latch — carrying the versions written meanwhile (their frames
// read, appended, and the files that took them synced) and committing
// — and drains readers with it released
func (s *Store) rewritePublish(st *arrayState) {
	st.reorgMu.Lock()
	defer st.reorgMu.Unlock()
	st.writeMu.Lock()
	_ = s.readFrames()
	_ = s.syncFile()
	_ = s.commitMeta()
	s.mu.Lock()
	s.mu.Unlock()
	st.writeMu.Unlock()
	st.ioMu.Lock()
	st.ioMu.Unlock()
}

func (s *Store) readFrames() error { return nil }

func (s *Store) syncFile() error { return nil }
