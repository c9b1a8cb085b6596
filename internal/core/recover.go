package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Open-time crash recovery (Options.Durability). The commit protocol
// guarantees that the committed metadata — the fsynced manifest records
// — only references payloads that were fsynced before the commit, so
// after a crash the committed state is intact and everything else on
// disk is debris from the interrupted mutation:
//
//   - a chunk generation that never got committed (either a *.build
//     directory or a fully renamed one whose metadata commit was lost);
//   - chunk files created by an uncommitted insert (orphans);
//   - torn or garbage bytes past the last committed frame at the tail
//     of a chunk file (the manifest log's own torn tail is truncated
//     by openManifest before recovery runs);
//   - per-array versions.json files an older binary's offline
//     migration superseded.
//
// recoverLocked sweeps all of it, truncates the torn tails, and — as a
// defense in depth for stores that were written without Durability and
// then crashed — reconciles the version list against the payloads that
// actually survived, dropping versions whose data is gone (never the
// case for durable writers, which the crash-point matrix test asserts).

// recoverLocked recovers every array. Called from Open before the store
// is visible to anyone.
func (s *Store) recoverLocked() error {
	for _, st := range s.arrays {
		if err := s.recoverArray(st); err != nil {
			return fmt.Errorf("array %q: %w", st.Schema.Name, err)
		}
	}
	return nil
}

func (s *Store) recoverArray(st *arrayState) error {
	if err := s.sweepDebris(st, &s.recovery); err != nil {
		return err
	}
	dropped, err := s.reconcileVersions(st, &s.recovery)
	if err != nil {
		return err
	}
	if err := s.collectChunkFiles(st, &s.recovery); err != nil {
		return err
	}
	if dropped {
		if err := s.saveMeta(st); err != nil {
			return err
		}
	}
	return nil
}

// sweepDebris removes commit leftovers in the array directory: heal
// probe scratch, generation build directories, chunk generations other
// than the committed one and those a reader still pins, and an older
// binary's per-array versions.json. What it swept is recorded into rs
// (Open-time recovery passes &s.recovery; the runtime heal pass keeps
// its own local counts).
func (s *Store) sweepDebris(st *arrayState, rs *RecoveryStats) error {
	keep := map[string]bool{st.chunksDir(): true}
	s.mu.RLock()
	for g := range s.retired {
		keep[g.dir] = true
	}
	s.mu.RUnlock()
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		stale := name == metaFile || name == metaFile+".tmp" || name == healProbeFile ||
			(strings.HasPrefix(name, "chunks") && !keep[filepath.Join(st.dir, name)])
		if !stale {
			continue
		}
		if err := s.fs.RemoveAll(filepath.Join(st.dir, name)); err != nil {
			return err
		}
		rs.RemovedFiles++
	}
	// the committed generation directory must exist even if the array has
	// no chunk payloads yet (a crash can lose it only when the metadata
	// commit itself was lost, which rolls back to a state that had it)
	return s.fs.MkdirAll(st.chunksDir())
}

// reconcileVersions drops live versions whose chunk payloads did not
// survive: data missing or short in the committed generation, or a
// delta base that was itself dropped. Reports whether anything changed.
func (s *Store) reconcileVersions(st *arrayState, rs *RecoveryStats) (bool, error) {
	sizes, err := chunkFileSizes(st.chunksDir())
	if err != nil {
		return false, err
	}
	dropped := false
	for {
		again := false
		live := st.live()
		liveIDs := make(map[int]bool, len(live))
		for _, vm := range live {
			liveIDs[vm.ID] = true
		}
		for _, vm := range live {
			if versionDamaged(vm, sizes, liveIDs) {
				vm.Deleted = true
				rs.DroppedVersions++
				dropped = true
				again = true
			}
		}
		if !again {
			return dropped, nil
		}
	}
}

func versionDamaged(vm *versionMeta, sizes map[string]int64, liveIDs map[int]bool) bool {
	for _, chunks := range vm.Chunks {
		for _, e := range chunks {
			size, ok := sizes[e.File]
			if !ok || e.Offset+frameLen(e.Length) > size {
				return true
			}
			if e.Base >= 0 && !liveIDs[e.Base] {
				return true
			}
		}
	}
	return false
}

// collectChunkFiles garbage-collects the committed generation:
// unreferenced files (orphans of uncommitted inserts, superseded
// re-encodes) are removed, and bytes past the last committed frame of
// each referenced file — torn tails, uncommitted appends — are
// truncated away.
func (s *Store) collectChunkFiles(st *arrayState, rs *RecoveryStats) error {
	dir := st.chunksDir()
	sizes, err := chunkFileSizes(dir)
	if err != nil {
		return err
	}
	maxRef := make(map[string]int64, len(sizes))
	for _, vm := range st.live() {
		for _, chunks := range vm.Chunks {
			for _, e := range chunks {
				if end := e.Offset + frameLen(e.Length); end > maxRef[e.File] {
					maxRef[e.File] = end
				}
			}
		}
	}
	for name, size := range sizes {
		end, referenced := maxRef[name]
		switch {
		case !referenced:
			if err := s.fs.Remove(filepath.Join(dir, name)); err != nil {
				return err
			}
			rs.RemovedFiles++
		case size > end:
			if err := s.fs.Truncate(filepath.Join(dir, name), end); err != nil {
				return err
			}
			rs.TruncatedFiles++
			rs.TruncatedBytes += size - end
		}
	}
	return nil
}

func chunkFileSizes(dir string) (map[string]int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return map[string]int64{}, nil
		}
		return nil, err
	}
	sizes := make(map[string]int64, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return nil, err
		}
		sizes[e.Name()] = info.Size()
	}
	return sizes, nil
}
