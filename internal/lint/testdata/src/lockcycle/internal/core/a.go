// Package core is a lockorder cycle fixture: two functions whose
// acquisition orders oppose each other form a cycle in the global
// acquisition graph — the classic ABBA deadlock — reported on top of
// the per-site order violation.
package core

import "sync"

type arrayState struct {
	commitMu sync.Mutex
	writeMu  sync.Mutex
}

// writeMu before commitMu: the documented direction
func (st *arrayState) ab() {
	st.writeMu.Lock()
	st.commitMu.Lock() // want `lock-order cycle: commitMu -> writeMu -> commitMu`
	st.commitMu.Unlock()
	st.writeMu.Unlock()
}

// commitMu before writeMu: opposes ab, closing the cycle
func (st *arrayState) ba() {
	st.commitMu.Lock()
	st.writeMu.Lock() // want `acquires writeMu while holding commitMu — violates the documented lock order`
	st.writeMu.Unlock()
	st.commitMu.Unlock()
}
