// Package core is the lockorder fixture for the latch sets the store's
// mutators actually take — all of them in the documented order, so the
// analyzer must stay silent: no descending acquisition, no cycle, no
// commit under Store.mu. Every metadata writer holds the array's one
// write latch, writeMu, from its snapshot to its install. No mutator
// waits for readers: a reader pins its generation with a reference, and
// the release that drops a retired generation's last reference removes
// its files and then takes Store.mu once (unpin). (The violations live
// in ../../lockorder; mixing them in here would close cycles with these
// legitimate edges.)
package core

import "sync"

type arrayState struct {
	reorgMu sync.Mutex
	writeMu sync.Mutex
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

// unpin drops a generation reference; the last one of a retired
// generation removes its files with no store lock held, then takes
// Store.mu to forget it
func (s *Store) unpin() {
	_ = s.syncFile()
	s.mu.Lock()
	s.mu.Unlock()
}

// snapshot pins the current generation under a brief store read lock;
// the caller's release is unpin
func (s *Store) snapshot() {
	s.mu.RLock()
	s.mu.RUnlock()
}

// DeleteVersion: the rewrite latch, then the write latch. The store
// lock is taken only to snapshot and to install; the re-encode, sync
// and commit run with it released, and writeMu keeps the generation
// they append into current. Nothing waits for readers afterwards
func (s *Store) deleteVersion() {
	st, _ := s.lockArray("x", func(st *arrayState) []*sync.Mutex {
		return []*sync.Mutex{&st.reorgMu, &st.writeMu}
	})
	defer st.reorgMu.Unlock()
	defer st.writeMu.Unlock()
	s.mu.RLock()
	s.mu.RUnlock()
	_ = s.syncFile()
	_ = s.commitMeta()
	s.mu.Lock()
	s.mu.Unlock()
}

// Heal: the same two latches, then the probe; the sweep reads the
// pinned generations under a brief store read lock and removes debris
// with it released; then the log repair and the re-commit
func (s *Store) healArray() {
	st, _ := s.lockArray("x", func(st *arrayState) []*sync.Mutex {
		return []*sync.Mutex{&st.reorgMu, &st.writeMu}
	})
	defer st.reorgMu.Unlock()
	defer st.writeMu.Unlock()
	_ = s.syncFile()
	s.mu.RLock()
	s.mu.RUnlock()
	s.sweepDebris()
	_ = s.commitMeta()
}

func (s *Store) sweepDebris() {
	s.mu.RLock()
	s.mu.RUnlock()
	_ = s.syncFile()
}

// DeleteArray: the drop record is appended under the write latch; the
// store lock is taken to check and to unpublish and retire the
// generation, and the array's own reference is dropped with it released
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
	s.unpin()
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
	for range sts {
		s.mu.RLock()
		s.mu.RUnlock()
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

// Reorganize and Compact: a rewrite pins its snapshot's generation and
// builds holding reorgMu alone, then publishes under the write latch —
// carrying the versions written meanwhile (their frames read, appended,
// and the files that took them synced), committing, and retiring the
// old generation at install — and drops its pin last, still under
// reorgMu
func (s *Store) rewrite(st *arrayState) {
	st.reorgMu.Lock()
	defer st.reorgMu.Unlock()
	s.snapshot()
	defer s.unpin()
	_ = s.syncFile()
	st.writeMu.Lock()
	_ = s.readFrames()
	_ = s.syncFile()
	_ = s.commitMeta()
	s.mu.Lock()
	s.mu.Unlock()
	s.unpin()
	st.writeMu.Unlock()
}

// Close: the closed flag under the store lock, a drain of every write
// latch, the current generations retired under the store lock, the
// arrays' references dropped with it released, then the wait for the
// last reference
func (s *Store) closeStore(sts []*arrayState) {
	s.mu.Lock()
	s.mu.Unlock()
	for _, st := range sts {
		st.writeMu.Lock()
		st.writeMu.Unlock()
	}
	s.mu.Lock()
	s.mu.Unlock()
	s.unpin()
	s.mu.Lock()
	s.mu.Unlock()
}

func (s *Store) readFrames() error { return nil }

func (s *Store) syncFile() error { return nil }
