// Package core is a lockorder cycle fixture: two functions whose
// acquisition orders oppose each other form a cycle in the global
// acquisition graph — the classic ABBA deadlock — reported on top of
// the per-site order violation.
package core

import "sync"

type arrayState struct {
	reorgMu sync.Mutex
	writeMu sync.Mutex
}

// reorgMu before writeMu: the documented direction
func (st *arrayState) ab() {
	st.reorgMu.Lock()
	st.writeMu.Lock()
	st.writeMu.Unlock()
	st.reorgMu.Unlock()
}

// writeMu before reorgMu: opposes ab, closing the cycle
func (st *arrayState) ba() {
	st.writeMu.Lock()
	st.reorgMu.Lock() // want `acquires reorgMu while holding writeMu — violates the documented lock order` `lock-order cycle: reorgMu -> writeMu -> reorgMu`
	st.reorgMu.Unlock()
	st.writeMu.Unlock()
}
