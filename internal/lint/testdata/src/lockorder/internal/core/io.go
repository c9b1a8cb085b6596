package core

// The I/O rule: no I/O seam — an fsio.FS/fsio.File method, syncWrites,
// syncFile, commitMeta, (*manifest).commit — may be reached while
// Store.mu is held, directly or through a same-package callee.

type manifest struct{}

func (m *manifest) commit() error { return nil }

// an fsio call directly under the store lock: flagged
func (s *Store) fsioUnderStoreMu(path string) {
	s.mu.Lock()
	_ = s.fs.Remove(path) // want `calls fsio\.FS\.Remove while holding Store\.mu`
	s.mu.Unlock()
}

// appendRecord reaches the manifest append; its summary carries the seam
func (s *Store) appendRecord() error { return s.man.commit() }

// the manifest append reached through a same-package helper: flagged
func (s *Store) commitViaHelper() {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = s.appendRecord() // want `calls appendRecord, which reaches manifest\.commit, while holding Store\.mu`
}

// the same calls under an array latch only: clean
func (s *Store) ioUnderLatch(st *arrayState, path string) {
	st.writeMu.Lock()
	defer st.writeMu.Unlock()
	f, _ := s.fs.Append(path)
	_ = f.Sync()
	_ = f.Close()
	_ = s.appendRecord()
}

// the same calls after a snapshot under a brief store lock that is
// released first; the install retakes it: clean
func (s *Store) ioAfterSnapshot(path string) {
	s.mu.RLock()
	s.mu.RUnlock()
	_ = s.fs.Remove(path)
	_ = s.appendRecord()
	s.mu.Lock()
	s.mu.Unlock()
}
