package core

import (
	"bytes"
	"context"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// FuzzOpenStore feeds hostile bytes to a whole store open: each input
// overwrites one chain file and the data log of a small durable store
// and appends to its manifest log, then the store is opened with
// Durability on (so crash recovery runs over all three), verified, and
// every live version is read. The contract: an error or a result, never
// a panic or a hang, and no allocation beyond what the store's files and
// the input can back. The seed store holds a dense array of a few
// versions, compacted into chain files part-way, so the later versions'
// frames are in the data log, and has rotated its manifest once.
func FuzzOpenStore(f *testing.F) {
	dir := f.TempDir()
	opts := smallOpts()
	opts.ChunkBytes = 1 << 10 // 4 chunks of 16² int32
	opts.Durability = true
	s, err := Open(dir, opts)
	if err != nil {
		f.Fatal(err)
	}
	// an insert's record is ~570 bytes and the Compact's carries the
	// whole document: the log rotates once, and the live log holds the
	// appends of the inserts after it
	rotateAt(s, 5<<9)
	if err := s.CreateArray(schema2D("D", 32)); err != nil {
		f.Fatal(err)
	}
	versions := evolvingVersions(5, 32, 41)
	for i, v := range versions {
		if _, err := s.Insert("D", DensePayload(v)); err != nil {
			f.Fatal(err)
		}
		if i == 2 {
			compactIf(f, s, "D", true)
		}
	}
	if n := s.Stats().ManifestRotations; n != 1 {
		f.Fatalf("the seed store rotated its manifest %d times, want 1", n)
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	gen, err := readCurrent(dir)
	if err != nil {
		f.Fatal(err)
	}
	logName := manifestLogName(gen)
	files := map[string][]byte{} // the seed store, by path under dir
	seedBytes := 0
	var chains, dlogs []string
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		raw, err := os.ReadFile(path)
		files[rel], seedBytes = raw, seedBytes+len(raw)
		if strings.HasSuffix(rel, ".chain") {
			chains = append(chains, rel)
		}
		if filepath.Base(rel) == dataLogName {
			dlogs = append(dlogs, rel)
		}
		return err
	})
	if err != nil {
		f.Fatal(err)
	}
	if len(chains) == 0 || len(dlogs) != 1 {
		f.Fatalf("the seed store holds %d chain files and %d data logs, want some and one", len(chains), len(dlogs))
	}
	slices.Sort(chains)
	chainName, dlogName := chains[0], dlogs[0]
	chain, dlog, log := files[chainName], files[dlogName], files[logName]
	if len(log) == 0 { // the inserts after the rotation are what inputs tear and replay
		f.Fatal("the seed store's live manifest log is empty")
	}
	f.Add(chain, dlog, []byte(nil))
	flipped := bytes.Clone(chain)
	flipped[len(flipped)-1] ^= 1 // inside the tip's payload
	f.Add(flipped, dlog, []byte(nil))
	f.Add(chain[:len(chain)-5], dlog, []byte(nil)) // torn chain tail
	flipped = bytes.Clone(dlog)
	flipped[len(flipped)/2] ^= 1 // inside a logged frame
	f.Add(chain, flipped, []byte(nil))
	f.Add(chain, dlog[:len(dlog)-5], []byte(nil)) // torn data-log tail
	f.Add(chain, dlog, []byte("AVC1\x01garbage")) // torn manifest-log tail
	f.Add(chain, dlog, log)                       // every record replayed twice
	f.Add(chain, dlog, log[:len(log)/2])          // a replayed record, torn

	f.Fuzz(func(t *testing.T, chain, dlog, tail []byte) {
		if len(chain) > 1<<16 || len(dlog) > 1<<16 || len(tail) > 1<<12 {
			return
		}
		dir := t.TempDir()
		for rel, raw := range files {
			switch rel {
			case chainName:
				raw = chain
			case dlogName:
				raw = dlog
			case logName:
				raw = append(bytes.Clone(raw), tail...)
			}
			path := filepath.Join(dir, rel)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		intact := bytes.Equal(chain, files[chainName]) && bytes.Equal(dlog, files[dlogName]) && len(tail) == 0
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		func() {
			s, err := Open(dir, opts)
			if err != nil {
				if intact {
					t.Fatalf("the intact seed store does not open: %v", err)
				}
				return
			}
			defer s.Close()
			for _, name := range s.ListArrays() {
				rep, err := s.Verify(name)
				if intact && (err != nil || !rep.Ok()) {
					t.Fatalf("the intact seed store fails verify: %v %v", err, rep.Problems)
				}
				infos, err := versionsOf(s, name)
				if err != nil {
					continue
				}
				for _, info := range infos {
					id := info.ID
					got, err := s.Read(context.Background(), ReadQuery{Array: name, IDs: []int{id}})
					if intact && (err != nil || !got[0].Dense.Equal(versions[id-1])) {
						t.Fatalf("the intact seed store reads version %d wrong: %v", id, err)
					}
				}
			}
		}()
		runtime.ReadMemStats(&after)
		if limit := uint64(64*(seedBytes+len(chain)+len(dlog)+len(tail))) + 4<<20; after.TotalAlloc-before.TotalAlloc > limit {
			t.Fatalf("opening a store with a %d-byte chain file, a %d-byte data log and a %d-byte manifest-log tail allocated %d bytes", len(chain), len(dlog), len(tail), after.TotalAlloc-before.TotalAlloc)
		}
	})
}
