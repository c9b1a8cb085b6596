package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"
)

// Degraded read-only mode (see DESIGN.md "Resilience & degraded
// modes"). The commit protocol's failure sites fall into two classes:
//
//   - benign: the failure happened strictly before the commit point and
//     the failed operation's effect is known (a staging append, opening
//     the manifest log). The mutation rolls back, memory and disk
//     agree, and the store stays writable.
//
//   - uncertain: a data or directory fsync failed (the kernel may have
//     dropped dirty pages whose write was already acknowledged), or the
//     manifest append's write, fsync or close failed (the record may or
//     may not be in the log). Accepting further writes against that
//     state could compound a torn commit, so the array — for a manifest
//     failure, the whole store — transitions into degraded read-only
//     mode: reads keep serving the in-memory (authoritative) metadata,
//     every mutation is refused with ErrDegraded.
//
// ENOSPC anywhere degrades the whole store: a full disk fails the next
// commit no matter which array it lands on.
//
// Nothing is ever installed in memory before its record is committed,
// so after any such failure memory holds the last state known durable;
// what is in doubt is only what the disk holds beyond it. Healing
// re-establishes durable disk state == in-memory state by probing the
// disk, cutting the manifest log back to its last acknowledged byte
// (manifest.heal), sweeping commit debris and orphaned chunk blobs (the
// Open-time recovery sweep, run on the live store), and verifying the
// array end to end before flipping it back to writable. A background
// prober (the healer) is armed on the first degrade and retries every
// HealInterval until the disk recovers; Heal runs the same pass
// synchronously.

// ErrDegraded is returned (wrapped) by mutations refused because the
// array — or the whole store, after ENOSPC — is in degraded read-only
// mode; match it with errors.Is. Reads are unaffected.
var ErrDegraded = errors.New("core: degraded read-only mode")

// commitUncertainError marks an I/O failure at or after the commit
// point whose on-disk effect is unknown (a failed manifest append, a
// failed CURRENT rename or its directory fsync). The manifest wraps
// those phases so callers can distinguish them from benign pre-commit
// failures.
type commitUncertainError struct{ err error }

func (e *commitUncertainError) Error() string { return e.err.Error() }
func (e *commitUncertainError) Unwrap() error { return e.err }

func uncertain(err error) error {
	if err == nil {
		return nil
	}
	return &commitUncertainError{err}
}

func isUncertain(err error) bool {
	var u *commitUncertainError
	return errors.As(err, &u)
}

// degradedInfo records why and since when an array (or the store) is
// read-only.
type degradedInfo struct {
	reason string
	since  time.Time
}

// ArrayHealth is one degraded array in a Health report.
type ArrayHealth struct {
	Name   string    `json:"name"`
	Reason string    `json:"reason"`
	Since  time.Time `json:"since"`
}

// Health is a snapshot of the store's degraded-mode state.
type Health struct {
	// Degraded reports whether anything — the store or any array — is
	// currently refusing writes.
	Degraded bool `json:"degraded"`
	// StoreDegraded reports store-wide read-only mode (ENOSPC).
	StoreDegraded bool      `json:"store_degraded"`
	StoreReason   string    `json:"store_reason,omitempty"`
	StoreSince    time.Time `json:"store_since,omitempty"`
	// Arrays lists per-array degraded states, sorted by name.
	Arrays []ArrayHealth `json:"arrays,omitempty"`
}

// Health reports the store's current degraded-mode state.
func (s *Store) Health() Health {
	s.healthMu.Lock()
	defer s.healthMu.Unlock()
	h := Health{}
	if s.storeDegraded != nil {
		h.Degraded = true
		h.StoreDegraded = true
		h.StoreReason = s.storeDegraded.reason
		h.StoreSince = s.storeDegraded.since
	}
	for name, d := range s.degraded {
		h.Degraded = true
		h.Arrays = append(h.Arrays, ArrayHealth{Name: name, Reason: d.reason, Since: d.since})
	}
	sort.Slice(h.Arrays, func(i, j int) bool { return h.Arrays[i].Name < h.Arrays[j].Name })
	return h
}

// writeGate refuses mutations on a degraded array (or store). Mutators
// call it at entry; a failure that slips past the gate (degrade racing
// an in-flight write) just fails its own commit and re-degrades.
func (s *Store) writeGate(name string) error {
	s.healthMu.Lock()
	defer s.healthMu.Unlock()
	if s.storeDegraded != nil {
		s.stats.WritesRejectedDegraded.Add(1)
		return fmt.Errorf("core: store is read-only (%s): %w", s.storeDegraded.reason, ErrDegraded)
	}
	if d, ok := s.degraded[name]; ok {
		s.stats.WritesRejectedDegraded.Add(1)
		return fmt.Errorf("core: array %q is read-only (%s): %w", name, d.reason, ErrDegraded)
	}
	return nil
}

// noteCommitFailure classifies a failure at an UNCERTAIN commit-protocol
// site (data fsync, chunks-dir fsync, manifest append): the
// array degrades, and ENOSPC additionally degrades the whole store.
// Callers may hold Store.mu; healthMu is a leaf lock.
func (s *Store) noteCommitFailure(st *arrayState, err error) {
	if err == nil || errors.Is(err, ErrClosed) || errors.Is(err, ErrDegraded) {
		return
	}
	if errors.Is(err, syscall.ENOSPC) {
		s.degradeStore(err)
	}
	s.degradeArray(st.Schema.Name, err)
}

// noteDiskPressure classifies a failure at a BENIGN site (staging,
// pre-commit tmp writes): the mutation rolled back cleanly, but ENOSPC
// still means the disk is full — degrade store-wide so later commits
// don't have to discover it the hard way.
func (s *Store) noteDiskPressure(err error) {
	if err == nil {
		return
	}
	if errors.Is(err, syscall.ENOSPC) {
		s.degradeStore(err)
	}
}

func (s *Store) degradeArray(name string, cause error) {
	s.healthMu.Lock()
	defer s.healthMu.Unlock()
	if _, ok := s.degraded[name]; !ok {
		s.degraded[name] = degradedInfo{reason: cause.Error(), since: s.clock()}
		s.stats.DegradedEntered.Add(1)
	}
	s.ensureHealerLocked()
}

func (s *Store) degradeStore(cause error) {
	s.healthMu.Lock()
	defer s.healthMu.Unlock()
	if s.storeDegraded == nil {
		s.storeDegraded = &degradedInfo{reason: cause.Error(), since: s.clock()}
		s.stats.DegradedEntered.Add(1)
	}
	s.ensureHealerLocked()
}

// clearDegraded flips one array back to writable.
func (s *Store) clearDegraded(name string) {
	s.healthMu.Lock()
	defer s.healthMu.Unlock()
	if _, ok := s.degraded[name]; ok {
		delete(s.degraded, name)
		s.stats.DegradedHealed.Add(1)
	}
}

// HealReport summarizes one Heal pass.
type HealReport struct {
	// StoreHealed reports that store-wide (ENOSPC) degradation cleared.
	StoreHealed bool
	// Healed lists arrays flipped back to writable, Failed maps arrays
	// still degraded to the reason the heal attempt failed.
	Healed []string
	Failed map[string]string
	// SweptFiles/TruncatedFiles/TruncatedBytes count what the heal's
	// recovery sweep reclaimed (orphaned blobs, stale generations,
	// uncommitted tails).
	SweptFiles     int64
	TruncatedFiles int64
	TruncatedBytes int64
}

// Heal attempts to exit degraded mode synchronously: probe the disk,
// settle the manifest log, sweep each degraded array's commit debris,
// and run Verify; arrays that pass flip back to writable. The background healer runs the same pass periodically; Heal
// exists for tests and operational tooling (avstore, the daemon's admin
// surface). A no-op when nothing is degraded.
func (s *Store) Heal() (HealReport, error) {
	rep := HealReport{Failed: map[string]string{}}
	s.healthMu.Lock()
	storeDeg := s.storeDegraded != nil
	names := make([]string, 0, len(s.degraded))
	for n := range s.degraded {
		names = append(names, n)
	}
	s.healthMu.Unlock()
	sort.Strings(names)
	if !storeDeg && len(names) == 0 {
		return rep, nil
	}
	if storeDeg {
		if err := s.probeDir(s.dir); err != nil {
			return rep, fmt.Errorf("core: heal probe: %w", err)
		}
		// An uncertain manifest append or CURRENT flip poisoned the log;
		// truncate the unhealed tail (or finish the flip) before declaring
		// the store writable again, or the next append would stack a record
		// on bytes whose durability is unknown.
		if err := s.man.heal(); err != nil {
			return rep, fmt.Errorf("core: heal manifest: %w", err)
		}
		s.healthMu.Lock()
		if s.storeDegraded != nil {
			s.storeDegraded = nil
			s.stats.DegradedHealed.Add(1)
		}
		s.healthMu.Unlock()
		rep.StoreHealed = true
	}
	for _, name := range names {
		if err := s.healArray(name, &rep); err != nil {
			if errors.Is(err, ErrClosed) {
				return rep, err
			}
			rep.Failed[name] = err.Error()
		} else {
			rep.Healed = append(rep.Healed, name)
		}
	}
	if len(rep.Failed) > 0 {
		return rep, fmt.Errorf("core: heal: %d array(s) still degraded: %w", len(rep.Failed), ErrDegraded)
	}
	return rep, nil
}

// healProbeFile is the scratch file probeDir writes; sweepDebris treats
// it as commit debris so a crash mid-probe leaves nothing behind.
const healProbeFile = "healprobe.tmp"

// probeDir checks that dir accepts a full create→write→fsync→remove
// round trip — the cheapest honest signal that the disk recovered.
func (s *Store) probeDir(dir string) error {
	path := filepath.Join(dir, healProbeFile)
	f, err := s.fs.Create(path)
	if err != nil {
		return err
	}
	_, werr := f.Write([]byte("healprobe"))
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	rerr := s.fs.Remove(path)
	if werr != nil {
		return werr
	}
	return rerr
}

// healArray runs one array's heal pass. It acquires both write-side
// latches in the documented order (reorgMu < writeMu), so no write,
// delete, or rewrite can be mid-commit: the in-memory metadata it
// sweeps against cannot move.
func (s *Store) healArray(name string, rep *HealReport) error {
	st, err := s.lockArray(name, func(st *arrayState) []*sync.Mutex {
		return []*sync.Mutex{&st.reorgMu, &st.writeMu}
	})
	if err != nil {
		if errors.Is(err, ErrClosed) {
			return err
		}
		// the array is gone (deleted or replaced); there is no state
		// left to protect
		s.clearDegraded(name)
		return nil
	}
	defer st.reorgMu.Unlock()
	defer st.writeMu.Unlock()

	if err := s.probeDir(st.dir); err != nil {
		return err
	}

	s.mu.RLock()
	closed, current := s.closed, s.arrays[name] == st
	s.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	if !current {
		s.clearDegraded(name)
		return nil
	}

	// the Open-time recovery sweep, on the live store: drop commit
	// debris and orphaned or torn chunk blobs, waiting for no reader. The
	// sweep skips the generations readers pin, and the committed one is
	// collected only while no reader pins it: one that snapshotted before
	// a DeleteVersion may read frames collection would remove (a later
	// one reads only live frames). Skipped work waits for the next heal.
	var local RecoveryStats
	err = s.sweepDebris(st, &local)
	if err == nil && st.current.refs.Load() == 1 {
		err = s.collectChunkFiles(st, &local)
	}
	if err != nil {
		return err
	}
	rep.SweptFiles += local.RemovedFiles
	rep.TruncatedFiles += local.TruncatedFiles
	rep.TruncatedBytes += local.TruncatedBytes

	vrep, err := s.Verify(name)
	if err != nil {
		return err
	}
	if !vrep.Ok() {
		return fmt.Errorf("core: heal verify found %d problem(s): %s", len(vrep.Problems), vrep.Problems[0])
	}

	s.clearDegraded(name)
	return nil
}

// HealInterval is the background heal prober's period once an array
// (or the whole store) has entered degraded read-only mode after an
// uncertain commit failure. The server's degraded-mode Retry-After hint
// derives from it.
const HealInterval = time.Second

// healer is the background heal prober. It is not started at Open:
// the first degrade arms it, and it disarms itself once nothing is
// degraded (the next degrade re-arms a fresh one).
type healer struct {
	s        *Store
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// ensureHealerLocked arms the background prober. Callers hold healthMu.
// Once Close has stopped it, it never re-arms.
func (s *Store) ensureHealerLocked() {
	if s.healer != nil || s.healerStopped {
		return
	}
	h := &healer{s: s, stop: make(chan struct{}), done: make(chan struct{})}
	s.healer = h
	go h.loop()
}

// stopHealer terminates the background prober, waits for an in-flight
// pass to finish, and keeps it from re-arming; called by Close, and by
// tests that heal explicitly.
func (s *Store) stopHealer() {
	s.healthMu.Lock()
	s.healerStopped = true
	h := s.healer
	s.healer = nil
	s.healthMu.Unlock()
	if h != nil {
		h.stopOnce.Do(func() { close(h.stop) })
		<-h.done
	}
}

func (h *healer) loop() {
	defer close(h.done)
	tick := time.NewTicker(HealInterval)
	defer tick.Stop()
	for {
		select {
		case <-h.stop:
			return
		case <-tick.C:
			if _, err := h.s.Heal(); errors.Is(err, ErrClosed) {
				return
			}
			h.s.healthMu.Lock()
			idle := h.s.storeDegraded == nil && len(h.s.degraded) == 0
			if idle && h.s.healer == h {
				h.s.healer = nil // disarmed; the next degrade re-arms
			}
			h.s.healthMu.Unlock()
			if idle {
				return
			}
		}
	}
}
