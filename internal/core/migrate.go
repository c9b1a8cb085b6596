package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"arrayvers/internal/chunk"
	"arrayvers/internal/fsio"
)

// Offline migration of legacy store directories (`avstore migrate`).
//
// Two on-disk shapes predate what Open serves, and this file is the
// only code that still reads them:
//
//   - per-array metadata: every array directory carries its own
//     versions.json (one arrayMeta document, renamed into place on each
//     commit) and the store root has no CURRENT. A committed DeleteArray
//     whose removal was interrupted is a directory renamed to
//     NAME.deleting; a crashed CreateArray is a directory without
//     versions.json.
//   - unframed chunks: an array whose document says format 0 stores raw
//     payloads without the checksummed frame header.
//
// Migrate upgrades both in one pass with one commit point: unframed
// arrays are copied, framed, into a fresh chunk generation beside the
// live one; then a manifest generation holding every array's document
// is written and CURRENT flipped to it (manifest.writeGeneration — the
// step a new store and a log rotation also take). A crash before the
// flip leaves the legacy store exactly as it was plus unreferenced
// debris the retry overwrites; a crash after it leaves a manifest store.
// Everything the flip made garbage — versions.json files, tombstones,
// half-created directories, superseded chunk and manifest generations —
// is what a durable Open sweeps anyway, so Migrate ends by running one.

const (
	// metaFile is the legacy per-array metadata document.
	metaFile = "versions.json"
	// formatRaw is the legacy chunk format: raw payloads, no frames.
	formatRaw = 0
)

// hasLegacyMeta reports whether any directory under dir carries legacy
// per-array metadata.
func hasLegacyMeta(dir string) bool {
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if _, err := os.Stat(filepath.Join(dir, e.Name(), metaFile)); err == nil {
			return true
		}
	}
	return false
}

// MigrateReport says what Migrate did.
type MigrateReport struct {
	// Migrated reports that a new manifest generation was committed;
	// false means the directory was already in the current format.
	Migrated bool
	// Arrays is the number of arrays in the store; Reframed counts those
	// whose chunks were rewritten into checksummed frames.
	Arrays   int
	Reframed int
	// Swept counts the files and directories the closing recovery pass
	// removed (legacy metadata, tombstones, superseded generations).
	Swept int64
}

// Migrate upgrades the store directory dir to the format Open serves.
// It must run offline — nothing else may have the directory open — and
// is idempotent: on a current store, and on a directory that is not a
// store yet, it changes nothing. fsys nil means the real filesystem.
func Migrate(dir string, fsys fsio.FS) (MigrateReport, error) {
	if fsys == nil {
		fsys = fsio.OS
	}
	var rep MigrateReport
	s := &Store{dir: dir, fs: fsys, opts: Options{Durability: true, FS: fsys}}
	man := &manifest{s: s, dir: dir, state: make(map[string]*arrayMeta)}
	var seq int64
	_, err := os.Stat(filepath.Join(dir, currentFile))
	switch {
	case err == nil:
		// already a manifest store; only unframed arrays can need work
		r, err := replayManifest(dir)
		if err != nil {
			return rep, err
		}
		man.state, man.gen, seq = r.state, r.gen, r.lastSeq
	case !errors.Is(err, os.ErrNotExist):
		return rep, fmt.Errorf("core: stat %s: %w", currentFile, err)
	case !hasLegacyMeta(dir):
		return rep, nil // a new or empty directory: Open creates the manifest
	default:
		if err := loadLegacyMeta(dir, man.state); err != nil {
			return rep, err
		}
	}
	names := make([]string, 0, len(man.state))
	for n := range man.state {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if man.state[n].Format != formatRaw {
			continue
		}
		framed, err := s.reframe(n, man.state[n])
		if err != nil {
			return rep, fmt.Errorf("core: migrate: re-frame array %q: %w", n, err)
		}
		man.state[n] = framed
		rep.Reframed++
	}
	rep.Arrays = len(names)
	if man.gen == 0 || rep.Reframed > 0 {
		if err := man.writeGeneration(man.gen+1, seq); err != nil {
			return rep, fmt.Errorf("core: migrate: %w", err)
		}
		rep.Migrated = true
	}
	opened, err := Open(dir, s.opts)
	if err != nil {
		return rep, err
	}
	rep.Swept = opened.Recovery().RemovedFiles
	for i := 0; rep.Migrated && i < len(names); i++ {
		if vr, verr := opened.Verify(names[i]); err == nil && (verr != nil || !vr.Ok()) {
			err = fmt.Errorf("core: migrate: array %q: %w: %v %v", names[i], ErrLegacyCorrupt, verr, vr.Problems)
		}
	}
	if cerr := opened.Close(); err == nil {
		err = cerr
	}
	return rep, err
}

// ErrLegacyCorrupt is returned (wrapped) by Migrate for legacy metadata
// that does not describe its chunks; a problem only decoding finds is
// reported after the commit point, on a migrated directory.
var ErrLegacyCorrupt = errors.New("core: corrupt legacy store")

// loadLegacyMeta reads the versions.json of every array directory under
// dir into state. A directory whose name is not the array's own — a
// NAME.deleting tombstone — is a committed deletion and is skipped, as
// is a directory without metadata (a crashed CreateArray).
func loadLegacyMeta(dir string, state map[string]*arrayMeta) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("core: read store dir: %w", err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name(), metaFile))
		if err != nil {
			if errors.Is(err, os.ErrNotExist) || !e.IsDir() {
				continue
			}
			return fmt.Errorf("core: load array %q: %w", e.Name(), err)
		}
		var m arrayMeta
		err = json.Unmarshal(raw, &m)
		if err == nil {
			err = m.Schema.Validate()
		}
		if err == nil && !m.SparseRep {
			err = checkLegacyGrid(&m)
		}
		if err != nil {
			return fmt.Errorf("core: load array %q: %w: %v", e.Name(), ErrLegacyCorrupt, err)
		}
		if m.Schema.Name == e.Name() {
			state[m.Schema.Name] = &m
		}
	}
	return nil
}

// checkLegacyGrid checks that every live version of a dense document has
// one entry per chunk of its grid, so Verify walks no more than it names.
func checkLegacyGrid(m *arrayMeta) error {
	ck, err := chunk.NewWithSide(m.Schema.Shape(), m.ChunkSide)
	for i := 0; err == nil && i < len(m.Versions); i++ {
		for _, attr := range m.Schema.Attrs {
			if n := len(m.Versions[i].Chunks[attr.Name]); !m.Versions[i].Deleted && int64(n) != ck.Count() {
				return fmt.Errorf("version %d has %d chunks of %s, its grid %v", m.Versions[i].ID, n, attr.Name, ck.CountPerDim())
			}
		}
	}
	return err
}

// reframe copies every live payload of an unframed array into chunk
// generation Gen+1, wrapped in frames (relocateChunks, the copy Compact
// makes, reading raw payloads instead of frames; Migrate's bare store
// keeps every file name), makes the new generation durable, and returns
// the document that references it. The live generation is only read.
func (s *Store) reframe(name string, doc *arrayMeta) (*arrayMeta, error) {
	adir := filepath.Join(s.dir, name)
	oldDir := filepath.Join(adir, chunksDirName(doc.Gen))
	newDir := filepath.Join(adir, chunksDirName(doc.Gen+1))
	// a leftover under this name is debris of an interrupted attempt
	if err := s.fs.RemoveAll(newDir); err != nil {
		return nil, err
	}
	if err := s.fs.MkdirAll(newDir); err != nil {
		return nil, err
	}
	framed := *doc
	framed.Format = formatFramed
	framed.Gen = doc.Gen + 1
	framed.Versions = make([]*versionMeta, len(doc.Versions))
	readRaw := func(e chunkEntry) ([]byte, error) {
		f, err := os.Open(filepath.Join(oldDir, e.File))
		if err != nil {
			return nil, err
		}
		defer func() { _ = f.Close() }() // read-only handle; close cannot lose data
		// the extent comes from legacy metadata: check it against the
		// file before it sizes a buffer, as readFrames does
		info, err := f.Stat()
		if err != nil {
			return nil, err
		}
		if size := info.Size(); e.Offset < 0 || e.Length < 0 || e.Offset > size || e.Length > size-e.Offset {
			return nil, fmt.Errorf("%w: %s@%d+%d, file has %d bytes", ErrExtentPastEOF, e.File, e.Offset, e.Length, size)
		}
		blob := make([]byte, e.Length)
		if _, err := f.ReadAt(blob, e.Offset); err != nil {
			return nil, fmt.Errorf("read chunk %s@%d+%d: %w", e.File, e.Offset, e.Length, err)
		}
		return blob, nil
	}
	ws := newWriteSet()
	for i, vm := range doc.Versions {
		cp := *vm
		framed.Versions[i] = &cp
		if vm.Deleted {
			continue
		}
		var err error
		if cp.Chunks, err = s.relocateChunks(doc.Schema, vm.Chunks, newDir, ws, readRaw); err != nil {
			return nil, err
		}
	}
	if err := s.syncBuild(ws, newDir); err != nil {
		return nil, err
	}
	return &framed, s.fs.SyncDir(adir)
}
