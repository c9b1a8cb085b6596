package core

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"arrayvers/internal/array"
)

// chaingenStore is a store recorded before rewrites wrote the data log,
// when Compact built one <attr>-<chunk>.chain file per chunk: a durable
// dense array "D" of five 32² int32 versions in 4 chunks of 16² int32
// (ChunkBytes 1 KiB), compacted after the third into chain files, whose
// fourth and fifth versions went to a data log beside them, and whose
// manifest rotated once. chaingenCRCs holds the CRC32-C of each
// version's cells.
var (
	chaingenStore = filepath.Join("testdata", "chaingen", "store")
	chaingenCRCs  = filepath.Join("testdata", "chaingen", "versions.crc")
)

// chaingenOpts are the options the chain-file fixture was written with.
func chaingenOpts() Options {
	opts := smallOpts()
	opts.ChunkBytes = 1 << 10
	opts.Durability = true
	return opts
}

// chaingenWant reads the fixture's golden CRCs, by version id.
func chaingenWant(t testing.TB) map[int]uint32 {
	t.Helper()
	raw, err := os.ReadFile(chaingenCRCs)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]uint32{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var id int
		var crc uint32
		if _, err := fmt.Sscanf(line, "%d %x", &id, &crc); err != nil {
			t.Fatalf("%s: %q: %v", chaingenCRCs, line, err)
		}
		want[id] = crc
	}
	return want
}

func cellsCRC(d *array.Dense) uint32 {
	return crc32.Checksum(d.Bytes(), crc32.MakeTable(crc32.Castagnoli))
}

// TestChainFileGenerationReads: a generation that holds chain files
// beside its data log opens without repair, verifies clean and reads
// every version byte-identical; a write lands in its log, and Compact
// rewrites the lot into one file, which reads the same after a reopen.
func TestChainFileGenerationReads(t *testing.T) {
	want := chaingenWant(t)
	s, err := Open(copyTree(t, chaingenStore), chaingenOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()
	if rec := s.Recovery(); rec != (RecoveryStats{}) {
		t.Fatalf("opening the fixture repaired %+v, want nothing", rec)
	}
	chunkFiles := func() []string {
		s.mu.RLock()
		dir := s.arrays["D"].chunksDir()
		s.mu.RUnlock()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		return names
	}
	check := func(label string) {
		t.Helper()
		if rep, err := s.Verify("D"); err != nil || !rep.Ok() || rep.DanglingBytes != 0 {
			t.Fatalf("%s: verify: %v %v, %d dangling bytes", label, err, rep.Problems, rep.DanglingBytes)
		}
		for id, crc := range want {
			got, err := s.Select("D", id)
			if err != nil || cellsCRC(got.Dense) != crc {
				t.Fatalf("%s: version %d does not read back: %v", label, id, err)
			}
		}
	}
	if names := chunkFiles(); len(names) != 5 || !slices.Contains(names, dataLogName) {
		t.Fatalf("the fixture's generation holds %v, want four chain files and a data log", names)
	}
	check("as recorded")
	next, err := s.Select("D", 5)
	if err != nil {
		t.Fatal(err)
	}
	next.Dense.SetBits(0, next.Dense.Bits(0)+1)
	id, err := s.Insert("D", DensePayload(next.Dense))
	if err != nil {
		t.Fatal(err)
	}
	want[id] = cellsCRC(next.Dense)
	check("after a write")
	if err := s.Compact("D"); err != nil {
		t.Fatal(err)
	}
	if names := chunkFiles(); !slices.Equal(names, []string{dataLogName}) {
		t.Fatalf("Compact left %v, want only %s", names, dataLogName)
	}
	check("compacted")
	s = reopen(t, s)
	check("reopened")
}

// FuzzOpenStore feeds hostile bytes to a whole store open: each input
// overwrites one chain file and the data log of a copy of the
// chain-file fixture (chaingenStore) and appends to its manifest log,
// then the store is opened with Durability on (so crash recovery runs
// over all three), verified, and every live version is read. The
// contract: an error or a result, never a panic or a hang, and no
// allocation beyond what the store's files and the input can back.
func FuzzOpenStore(f *testing.F) {
	opts := chaingenOpts()
	want := chaingenWant(f)
	gen, err := readCurrent(chaingenStore)
	if err != nil {
		f.Fatal(err)
	}
	logName := manifestLogName(gen)
	files := map[string][]byte{} // the seed store, by path under its root
	seedBytes := 0
	err = filepath.WalkDir(chaingenStore, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(chaingenStore, path)
		raw, err := os.ReadFile(path)
		files[rel], seedBytes = raw, seedBytes+len(raw)
		return err
	})
	if err != nil {
		f.Fatal(err)
	}
	chainName := filepath.Join("D", "chunks.g1", "A-chunk-0-0-15-15.chain")
	dlogName := filepath.Join("D", "chunks.g1", dataLogName)
	chain, dlog, log := files[chainName], files[dlogName], files[logName]
	if len(chain) == 0 || len(dlog) == 0 || len(log) == 0 { // the inserts after the rotation are what inputs tear and replay
		f.Fatalf("the seed store lacks a chain file, a data log or a live manifest log (%d, %d, %d bytes)", len(chain), len(dlog), len(log))
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
					if intact && (err != nil || cellsCRC(got[0].Dense) != want[id]) {
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
