package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"arrayvers/internal/fsio"
)

// Tests for the offline migration against the checked-in legacy
// fixture (testdata/legacy/store, generated at the last commit that
// could still write the format): array "Raw" has unframed chunks,
// "Framed" has framed chunks and a deleted version 2, "Gone.deleting"
// is the tombstone of a committed DeleteArray, "Half" a crashed
// CreateArray. golden.json holds the CRC32 of every live version's
// cells as the writing release read them back.

const legacyFixture = "testdata/legacy"

// copyLegacyFixture clones the fixture store into a fresh temp dir —
// migration mutates in place.
func copyLegacyFixture(t *testing.T) string {
	t.Helper()
	src := filepath.Join(legacyFixture, "store")
	dst := filepath.Join(t.TempDir(), "store")
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), raw, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// treeDigest maps every file under dir to the CRC of its bytes, and
// every directory to 0.
func treeDigest(t *testing.T, dir string) map[string]uint32 {
	t.Helper()
	out := map[string]uint32{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		if d.IsDir() {
			out[rel+"/"] = 0
			return nil
		}
		raw, err := os.ReadFile(path)
		out[rel] = crc32.ChecksumIEEE(raw)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// checkLegacyGoldens opens dir and compares every live version of the
// fixture's arrays with the golden CRCs; the store must hold exactly
// those arrays and verify clean.
func checkLegacyGoldens(t *testing.T, dir, label string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(legacyFixture, "golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]map[string]uint32
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	opts := smallOpts()
	opts.Durability = true
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("%s: open: %v", label, err)
	}
	defer s.Close()
	if got := fmt.Sprint(s.ListArrays()); got != "[Framed Raw]" {
		t.Fatalf("%s: arrays %s, want [Framed Raw]", label, got)
	}
	for name, versions := range golden {
		infos, err := versionsOf(s, name)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if len(infos) != len(versions) {
			t.Fatalf("%s: %s has %d live versions, want %d", label, name, len(infos), len(versions))
		}
		for _, vi := range infos {
			pl, err := s.Select(name, vi.ID)
			if err != nil {
				t.Fatalf("%s: %s@%d unreadable: %v", label, name, vi.ID, err)
			}
			if got, want := crc32.ChecksumIEEE(pl.Dense.Bytes()), versions[fmt.Sprint(vi.ID)]; got != want {
				t.Fatalf("%s: %s@%d reads %08x, golden %08x", label, name, vi.ID, got, want)
			}
		}
		rep, err := s.Verify(name)
		if err != nil || !rep.Ok() {
			t.Fatalf("%s: verify %s: %v %v", label, name, err, rep.Problems)
		}
	}
	mrep, err := s.VerifyManifest()
	if err != nil || !mrep.Ok() || len(mrep.StrayFiles) != 0 {
		t.Fatalf("%s: manifest verify: %v %+v", label, err, mrep)
	}
}

// TestOpenRefusesLegacyStore: Open on a pre-manifest directory fails
// with the typed error, durable or not, and writes nothing.
func TestOpenRefusesLegacyStore(t *testing.T) {
	dir := copyLegacyFixture(t)
	before := treeDigest(t, dir)
	for _, durable := range []bool{false, true} {
		opts := smallOpts()
		opts.Durability = durable
		if _, err := Open(dir, opts); !errors.Is(err, ErrLegacyStore) {
			t.Fatalf("Open(durable=%v) on a legacy directory returned %v, want ErrLegacyStore", durable, err)
		}
	}
	if after := treeDigest(t, dir); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("Open touched the legacy directory:\nbefore %v\nafter  %v", before, after)
	}
}

// TestMigrateLegacyFixture: migrate → reopen → goldens; the raw array
// is re-framed, the debris is gone, the store takes cross-array
// commits, and a second migrate changes nothing.
func TestMigrateLegacyFixture(t *testing.T) {
	dir := copyLegacyFixture(t)
	rep, err := Migrate(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Migrated || rep.Arrays != 2 || rep.Reframed != 1 || rep.Swept == 0 {
		t.Fatalf("unexpected report %+v", rep)
	}
	checkLegacyGoldens(t, dir, "migrated")
	for _, gone := range []string{"Gone.deleting", "Half", "Raw/" + metaFile, "Framed/" + metaFile, "Raw/chunks"} {
		if _, err := os.Stat(filepath.Join(dir, gone)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("migration left %s behind (err=%v)", gone, err)
		}
	}
	s, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if st := s.arrays["Raw"]; st.Format != formatFramed || st.Gen != 1 {
		t.Fatalf("Raw not re-framed into generation 1: format %d gen %d", st.Format, st.Gen)
	}
	extra := crashContent(91, 8)
	out, err := s.InsertMulti([]MultiInsert{
		{Array: "Raw", Payloads: []Payload{DensePayload(extra)}},
		{Array: "Framed", Payloads: []Payload{DensePayload(extra)}},
	})
	if err != nil {
		t.Fatalf("InsertMulti on the migrated store: %v", err)
	}
	for name, ids := range out {
		if got, err := s.Select(name, ids[0]); err != nil || !got.Dense.Equal(extra) {
			t.Fatalf("post-migration insert %s@%d: %v", name, ids[0], err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	before := treeDigest(t, dir)
	rep, err = Migrate(dir, nil)
	if err != nil || rep.Migrated || rep.Reframed != 0 {
		t.Fatalf("second migrate: %+v %v, want a no-op", rep, err)
	}
	if after := treeDigest(t, dir); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatal("second migrate changed an already-current store")
	}
	// a directory that is not a store yet is left for Open to create
	empty := t.TempDir()
	if rep, err := Migrate(empty, nil); err != nil || rep.Migrated {
		t.Fatalf("migrate of an empty directory: %+v %v", rep, err)
	}
	if entries, _ := os.ReadDir(empty); len(entries) != 0 {
		t.Fatal("migrate wrote into an empty directory")
	}
}

// TestMigrateReframesManifestStore: unframed arrays can also sit in a
// store that already has a manifest (one migrated in place by an older
// release). Open refuses it; migrate re-frames and it opens.
func TestMigrateReframesManifestStore(t *testing.T) {
	dir := copyLegacyFixture(t)
	if _, err := Migrate(dir, nil); err != nil {
		t.Fatal(err)
	}
	// rewind "Framed" to the unframed format the way an old in-place
	// migration would have left it: flag the document, and point every
	// entry past its frame header — at what is a bare payload
	s, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	doc := s.arrays["Framed"].metaClone()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	raw := doc
	raw.Format = formatRaw
	raw.Versions = nil
	for _, vm := range doc.Versions {
		cp := *vm
		cp.Chunks = map[string]map[string]chunkEntry{}
		for attr, chunks := range vm.Chunks {
			cp.Chunks[attr] = map[string]chunkEntry{}
			for k, e := range chunks {
				e.Offset += frameHeaderLen // the payload inside the frame
				cp.Chunks[attr][k] = e
			}
		}
		raw.Versions = append(raw.Versions, &cp)
	}
	bare := &Store{dir: dir, fs: fsio.OS, opts: Options{FS: fsio.OS}}
	r, err := replayManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	r.state["Framed"] = &raw
	man := &manifest{s: bare, dir: dir, state: r.state}
	if err := man.writeGeneration(r.gen+1, r.lastSeq); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, smallOpts()); !errors.Is(err, ErrLegacyStore) {
		t.Fatalf("Open of a manifest store with unframed chunks returned %v, want ErrLegacyStore", err)
	}
	rep, err := Migrate(dir, nil)
	if err != nil || !rep.Migrated || rep.Reframed != 1 {
		t.Fatalf("migrate: %+v %v", rep, err)
	}
	checkLegacyGoldens(t, dir, "re-framed manifest store")
}

// TestMigrateFaultMatrix injects a fault at every filesystem step of
// the migration — a crash (fsio.Fault, which also drops unsynced data)
// and a transient EIO (fsio.Flaky). Afterwards the directory must be
// exactly one of: still legacy — every original file byte-identical,
// Open refusing it, and a retry completing the migration — or fully
// migrated. Either way the goldens read back.
func TestMigrateFaultMatrix(t *testing.T) {
	type faultFS interface {
		fsio.FS
		Steps() int64
	}
	kinds := map[string]func(at int64) faultFS{
		"crash": func(at int64) faultFS { return fsio.NewFault(at) },
		"eio": func(at int64) faultFS {
			f := fsio.NewFlaky(fsio.OS)
			if at > 0 {
				f.FailAt(at, fsio.ErrIO)
			}
			return f
		},
	}
	for kind, mk := range kinds {
		t.Run(kind, func(t *testing.T) {
			counter := mk(0)
			if _, err := Migrate(copyLegacyFixture(t), counter); err != nil {
				t.Fatalf("counting run: %v", err)
			}
			total := counter.Steps()
			if total < 20 {
				t.Fatalf("migration only has %d fault points", total)
			}
			t.Logf("migration %s matrix: %d fault injection points", kind, total)
			for n := int64(1); n <= total; n++ {
				dir := copyLegacyFixture(t)
				legacy := treeDigest(t, dir)
				_, merr := Migrate(dir, mk(n))
				label := fmt.Sprintf("%s at step %d/%d (migrate err: %v)", kind, n, total, merr)
				if _, err := os.Stat(filepath.Join(dir, currentFile)); errors.Is(err, os.ErrNotExist) {
					if merr == nil {
						t.Fatalf("%s: migrate succeeded without committing", label)
					}
					now := treeDigest(t, dir)
					for path, sum := range legacy {
						if got, ok := now[path]; !ok || got != sum {
							t.Fatalf("%s: pre-commit failure damaged legacy file %s", label, path)
						}
					}
					if _, err := Open(dir, smallOpts()); !errors.Is(err, ErrLegacyStore) {
						t.Fatalf("%s: half-migrated directory opened: %v", label, err)
					}
					if _, err := Migrate(dir, nil); err != nil {
						t.Fatalf("%s: retry: %v", label, err)
					}
				}
				checkLegacyGoldens(t, dir, label)
			}
		})
	}
}

// TestMigrateRejectsCorruptMetadata: an undecodable versions.json fails
// the migration before anything is written.
func TestMigrateRejectsCorruptMetadata(t *testing.T) {
	dir := copyLegacyFixture(t)
	if err := os.WriteFile(filepath.Join(dir, "Framed", metaFile), []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	before := treeDigest(t, dir)
	if _, err := Migrate(dir, nil); err == nil {
		t.Fatal("corrupt legacy metadata accepted")
	}
	if after := treeDigest(t, dir); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatal("failed migration wrote to the directory")
	}
}

// FuzzMigrate feeds hostile bytes to the offline migration as the
// unframed array's legacy metadata: each input replaces Raw/versions.json
// in a copy of the fixture. Migrate must return an error or leave a store
// that opens and verifies clean — never panic, and never allocate more
// than the fixture's files and the input can back. Seeds are the
// fixture's own documents.
func FuzzMigrate(f *testing.F) {
	fixture := 0 // bytes in the fixture's files
	err := filepath.WalkDir(filepath.Join(legacyFixture, "store"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		raw, err := os.ReadFile(path)
		fixture += len(raw)
		if d.Name() == metaFile {
			f.Add(raw)
		}
		return err
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		dir := copyLegacyFixture(t)
		if err := os.WriteFile(filepath.Join(dir, "Raw", metaFile), doc, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Migrate(dir, nil)
		runtime.ReadMemStats(&after)
		if limit := uint64(64*(fixture+len(doc))) + 4<<20; after.TotalAlloc-before.TotalAlloc > limit {
			t.Fatalf("migrating a %d-byte document allocated %d bytes", len(doc), after.TotalAlloc-before.TotalAlloc)
		}
		if err != nil {
			return
		}
		opts := smallOpts()
		opts.Durability = true
		s, err := Open(dir, opts)
		if err != nil {
			t.Fatalf("the migrated store does not open: %v", err)
		}
		defer s.Close()
		for _, name := range s.ListArrays() {
			if rep, err := s.Verify(name); err != nil || !rep.Ok() {
				t.Fatalf("verify %s after migrating: %v %v", name, err, rep.Problems)
			}
		}
	})
}

// TestMigrateHugeDeclaredPlane: a legacy document whose chunk grid is
// consistent but whose declared plane (4000² int32, 64 MB) its 144-byte
// root payloads cannot back fails the migration's closing verify with
// ErrLegacyCorrupt — decoding chunk by chunk, never allocating the plane.
// A document whose versions do not fill its grid fails before anything
// is written.
func TestMigrateHugeDeclaredPlane(t *testing.T) {
	for _, fill := range []bool{true, false} {
		t.Run(fmt.Sprintf("fills-grid=%v", fill), func(t *testing.T) {
			dir := copyLegacyFixture(t)
			path := filepath.Join(dir, "Raw", metaFile)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var m arrayMeta
			if err := json.Unmarshal(raw, &m); err != nil {
				t.Fatal(err)
			}
			for i := range m.Schema.Dims {
				m.Schema.Dims[i].Hi = 3999
			}
			m.ChunkSide = []int64{2000, 2000}
			if !fill {
				m.ChunkSide = []int64{1000, 1000} // a 4×4 grid; versions hold 4 chunks
			}
			rename := map[string]string{
				"chunk-0-0-5-5": "chunk-0-0-1999-1999", "chunk-0-6-5-11": "chunk-0-2000-1999-3999",
				"chunk-6-0-11-5": "chunk-2000-0-3999-1999", "chunk-6-6-11-11": "chunk-2000-2000-3999-3999",
			}
			for _, vm := range m.Versions {
				for attr, chunks := range vm.Chunks {
					renamed := map[string]chunkEntry{}
					for k, e := range chunks {
						renamed[rename[k]] = e
					}
					vm.Chunks[attr] = renamed
				}
			}
			if raw, err = json.Marshal(m); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err = Migrate(dir, nil)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrLegacyCorrupt) {
				t.Fatalf("Migrate = %v, want ErrLegacyCorrupt", err)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 16<<20 {
				t.Fatalf("the failed migration allocated %d bytes", alloc)
			}
			if _, err := os.Stat(filepath.Join(dir, currentFile)); fill == errors.Is(err, os.ErrNotExist) {
				t.Fatalf("after a grid that fills=%v, CURRENT stat = %v", fill, err)
			}
		})
	}
}

// TestMigrateHostileLength: a legacy chunk entry whose length is
// negative or far past its file fails the migration with
// ErrExtentPastEOF before anything is sized by it — never a panic or a
// huge allocation — and the directory stays a retryable legacy store.
func TestMigrateHostileLength(t *testing.T) {
	for _, bad := range []int64{-1, 1 << 40} {
		t.Run(fmt.Sprint(bad), func(t *testing.T) {
			dir := copyLegacyFixture(t)
			path := filepath.Join(dir, "Raw", metaFile)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var m arrayMeta
			if err := json.Unmarshal(raw, &m); err != nil {
				t.Fatal(err)
			}
			chunks := m.Versions[0].Chunks["A"]
			for k, e := range chunks {
				e.Length = bad
				chunks[k] = e
				break
			}
			if raw, err = json.Marshal(m); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err = Migrate(dir, nil)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrExtentPastEOF) {
				t.Fatalf("Migrate = %v, want ErrExtentPastEOF", err)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 16<<20 {
				t.Fatalf("the failed migration allocated %d bytes", alloc)
			}
			if _, err := Open(dir, smallOpts()); !errors.Is(err, ErrLegacyStore) {
				t.Fatalf("Open after the failed migration returned %v, want ErrLegacyStore", err)
			}
		})
	}
}
