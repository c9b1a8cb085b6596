// Package core is a lockorder fixture mirroring the store's latch
// names. Scenarios: in-order acquisition (clean), out-of-order
// acquisition (flagged), same-instance re-acquire (flagged),
// cross-instance latch pairs (suppressed: the sorted-name protocol
// governs), early-return unlock (no false positive), interprocedural
// acquisition through a summary (flagged), a descending lockArray
// latch list (flagged), the escape hatch on the same descending pair
// badOrder takes, and (io.go) I/O reached under Store.mu. (The latch
// sets the mutators really take, ascending latch lists included, are
// pinned clean in ../../locksets: their reorgMu -> writeMu edge would
// close a cycle with the descending writeMu -> reorgMu pairs here. The
// ascending pairs here are chosen the same way: every edge follows
// healthMu, writeMu, reorgMu, Store.mu, so the graph has no
// cycle and each diagnostic is the one its scenario names.)
package core

import (
	"sync"

	"example/lockorder/internal/fsio"
)

type arrayState struct {
	reorgMu sync.Mutex
	writeMu sync.Mutex
}

type Store struct {
	mu       sync.RWMutex
	healthMu sync.Mutex
	arrays   map[string]*arrayState
	fs       fsio.FS
	man      *manifest
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

// ascending ranks throughout: clean
func (s *Store) goodOrder(st *arrayState) {
	st.reorgMu.Lock()
	s.mu.Lock()
	s.mu.Unlock()
	st.reorgMu.Unlock()
}

// healthMu ranks above Store.mu: taking the store lock while holding
// healthMu descends
func (s *Store) badOrder() {
	s.healthMu.Lock()
	s.mu.Lock() // want `acquires Store.mu while holding Store.healthMu — violates the documented lock order`
	s.mu.Unlock()
	s.healthMu.Unlock()
}

// same-rank, same-instance double acquisition is a self-deadlock
func (s *Store) doubleLock() {
	s.healthMu.Lock()
	s.healthMu.Lock() // want `re-acquires Store.healthMu already held`
	s.healthMu.Unlock()
	s.healthMu.Unlock()
}

// descending within ONE array's latches is flagged even though the
// same pair across two arrays (multiArray below) is not
func (st *arrayState) sameInstance() {
	st.writeMu.Lock()
	st.reorgMu.Lock() // want `acquires reorgMu while holding writeMu — violates the documented lock order`
	st.reorgMu.Unlock()
	st.writeMu.Unlock()
}

// cross-instance latch pairs follow the sorted-name protocol (Write),
// which rank cannot express: suppressed
func multiArray(a, b *arrayState) {
	a.writeMu.Lock()
	b.reorgMu.Lock()
	b.reorgMu.Unlock()
	a.writeMu.Unlock()
}

// the early-return cleanup pattern: the conditional unlock must not
// clear the held set for the fall-through path, and the fall-through
// unlock must
func (s *Store) earlyReturn(ok bool) {
	s.mu.RLock()
	if !ok {
		s.mu.RUnlock()
		return
	}
	s.mu.RUnlock()
	st := &arrayState{}
	st.writeMu.Lock() // would flag against a phantom-held Store.mu otherwise
	st.writeMu.Unlock()
}

// lockWrite is a pure acquirer: its held-at-exit set propagates to
// callers through the call summary
func (s *Store) lockWrite(st *arrayState) {
	st.writeMu.Lock()
}

func (s *Store) viaSummary(st *arrayState) {
	s.healthMu.Lock()
	s.lockWrite(st) // want `acquires writeMu while holding Store\.healthMu — violates the documented lock order`
	st.writeMu.Unlock()
	s.healthMu.Unlock()
}

// a latch list returned out of the documented order is flagged at the
// call site (and the descending acquisition it implies is too)
func (s *Store) badLatchList() {
	st, _ := s.lockArray("x", func(st *arrayState) []*sync.Mutex { // want `lockArray latch list acquires reorgMu after a higher-ranked latch` `acquires reorgMu while holding writeMu`
		return []*sync.Mutex{&st.writeMu, &st.reorgMu}
	})
	st.reorgMu.Unlock()
	st.writeMu.Unlock()
}

// deferred unlocks hold to function end; ascending order stays clean
func (s *Store) withDefer(st *arrayState) {
	st.reorgMu.Lock()
	defer st.reorgMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
}

// badOrder's acquisition under the escape hatch: suppressed
func (s *Store) hatch() {
	s.healthMu.Lock()
	s.mu.Lock() //avlint:allow-lock fixture exercising the escape hatch
	s.mu.Unlock()
	s.healthMu.Unlock()
}
