package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"arrayvers/internal/array"
	"arrayvers/internal/fsio"
)

// Regression tests for the write commit path: transactional staging
// (no phantom versions on a failed commit), failure-site orphan
// reclamation, the atomicity of a many-payload Write, and the write
// latches' name order under concurrent writers.

var errInjected = errors.New("injected io failure")

// writeOne is a one-put Write: ps into the named array in one commit.
func writeOne(s *Store, name string, ps []Payload) ([]int, error) {
	ids, err := s.Write(context.Background(), []MultiInsert{{Array: name, Payloads: ps}})
	if err != nil {
		return nil, err
	}
	return ids[0], nil
}

// failFS wraps a filesystem and fails exactly one matching mutation,
// then behaves normally — unlike fsio.Fault, which ends the world — so
// tests can assert the store keeps working after an I/O error.
type failFS struct {
	fsio.FS
	mu    sync.Mutex
	match func(op, path string) bool
}

func (f *failFS) arm(match func(op, path string) bool) {
	f.mu.Lock()
	f.match = match
	f.mu.Unlock()
}

func (f *failFS) hit(op, path string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.match != nil && f.match(op, path) {
		f.match = nil
		return true
	}
	return false
}

func (f *failFS) Create(path string) (fsio.File, error) {
	if f.hit("create", path) {
		return nil, errInjected
	}
	return f.FS.Create(path)
}

// Append fails on an "append" match; each Write to the opened file is
// a "write" step of its own.
func (f *failFS) Append(path string) (fsio.File, error) {
	if f.hit("append", path) {
		return nil, errInjected
	}
	file, err := f.FS.Append(path)
	if err != nil {
		return nil, err
	}
	return &failFile{File: file, fs: f, path: path}, nil
}

type failFile struct {
	fsio.File
	fs   *failFS
	path string
}

func (f *failFile) Write(p []byte) (int, error) {
	if f.fs.hit("write", f.path) {
		return 0, errInjected
	}
	return f.File.Write(p)
}

func (f *failFS) Rename(oldPath, newPath string) error {
	if f.hit("rename", newPath) {
		return errInjected
	}
	return f.FS.Rename(oldPath, newPath)
}

func (f *failFS) SyncDir(path string) error {
	if f.hit("syncdir", path) {
		return errInjected
	}
	return f.FS.SyncDir(path)
}

// assertStoreAgrees reopens the store directory with recovery and
// checks that the on-disk state matches the live store's versions and
// contents exactly — the phantom-version bug made them diverge.
func assertStoreAgrees(t *testing.T, s *Store, name string, want map[int]*array.Dense) {
	t.Helper()
	check := func(label string, st *Store) {
		infos, err := versionsOf(st, name)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if len(infos) != len(want) {
			t.Fatalf("%s: %d live versions, want %d", label, len(infos), len(want))
		}
		for _, vi := range infos {
			content, ok := want[vi.ID]
			if !ok {
				t.Fatalf("%s: unexpected version %d", label, vi.ID)
			}
			got, err := st.Select(name, vi.ID)
			if err != nil {
				t.Fatalf("%s: version %d unreadable: %v", label, vi.ID, err)
			}
			if !got.Dense.Equal(content) {
				t.Fatalf("%s: version %d corrupted", label, vi.ID)
			}
		}
	}
	check("live store", s)
	r, err := Open(s.Dir(), Options{ChunkBytes: s.opts.ChunkBytes, Durability: true})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := r.Recovery().DroppedVersions; got != 0 {
		t.Fatalf("reopen dropped %d committed versions", got)
	}
	check("reopened store", r)
}

// TestInsertMetaCommitFailureRollsBack is the phantom-version
// regression: a fault injected under the insert's metadata commit — the
// manifest append — must leave the failed id unselectable, the
// in-memory state identical to a durable reopen, the orphaned blobs
// reclaimed, and the id reusable by the next insert. Failing to open
// the log is benign (nothing was written); a failed log write is
// uncertain and must additionally contain the store until a heal.
func TestInsertMetaCommitFailureRollsBack(t *testing.T) {
	for _, fault := range []string{"open-log", "write-log"} {
		t.Run(fault, func(t *testing.T) {
			wfs := &manifestWriteFaultFS{FS: fsio.OS}
			ffs := &failFS{FS: wfs}
			opts := smallOpts()
			opts.ChunkBytes = 1 << 10
			opts.Durability = true
			opts.FS = ffs
			s := testStore(t, opts)
			s.stopHealer() // heal explicitly, not from the background prober
			const side = 16
			if err := s.CreateArray(schema2D("A", side)); err != nil {
				t.Fatal(err)
			}
			v1 := crashContent(1, side)
			if _, err := s.Insert("A", DensePayload(v1)); err != nil {
				t.Fatal(err)
			}
			if fault == "open-log" {
				ffs.arm(func(op, path string) bool {
					return op == "append" && strings.HasPrefix(filepath.Base(path), manifestPrefix)
				})
				if _, err := s.Insert("A", DensePayload(crashContent(2, side))); !errors.Is(err, errInjected) {
					t.Fatalf("insert under a meta-commit fault returned %v, want the injected failure", err)
				}
				if h := s.Health(); h.Degraded {
					t.Fatal("benign pre-commit failure must not degrade the array")
				}
			} else {
				wfs.arm(true)
				if _, err := s.Insert("A", DensePayload(crashContent(2, side))); !errors.Is(err, fsio.ErrIO) {
					t.Fatalf("insert under a meta-commit fault returned %v, want the injected failure", err)
				}
				wfs.arm(false)
				// a failed log write leaves the on-disk effect uncertain:
				// the store must be contained in degraded read-only mode
				// until a heal verifies the disk
				if h := s.Health(); !h.Degraded {
					t.Fatal("store not degraded after an uncertain manifest append failure")
				}
				if _, err := s.Insert("A", DensePayload(crashContent(9, side))); !errors.Is(err, ErrDegraded) {
					t.Fatalf("insert while degraded returned %v, want ErrDegraded", err)
				}
				rep, err := s.Heal()
				if err != nil {
					t.Fatalf("heal: %v", err)
				}
				if !rep.StoreHealed || len(rep.Healed) != 1 || rep.Healed[0] != "A" {
					t.Fatalf("heal report %+v, want the store and [A] back to writable", rep)
				}
				if h := s.Health(); h.Degraded {
					t.Fatal("store still degraded after a successful heal")
				}
			}
			// the failed version must be invisible to selects and absent
			// from metadata, in memory and after a reopen alike
			if _, err := s.Select("A", 2); err == nil {
				t.Fatal("phantom version 2 is selectable after a failed commit")
			}
			assertStoreAgrees(t, s, "A", map[int]*array.Dense{1: v1})
			// the blobs the failed insert appended must have been swept
			if st := s.Stats(); st.InsertOrphanFiles == 0 {
				t.Fatal("failed insert reclaimed no orphaned blobs")
			}
			rep, err := s.Verify("A")
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Ok() {
				t.Fatalf("store fails verify after failed insert: %v", rep.Problems)
			}
			if rep.DanglingBytes != 0 {
				t.Fatalf("%d orphaned bytes left dangling after the failure-site sweep", rep.DanglingBytes)
			}
			// the reserved id is reclaimed: the next insert gets id 2 and
			// the store is fully writable
			v2 := crashContent(3, side)
			id, err := s.Insert("A", DensePayload(v2))
			if err != nil {
				t.Fatalf("insert after failed commit: %v", err)
			}
			if id != 2 {
				t.Fatalf("insert after failed commit got id %d, want the reclaimed id 2", id)
			}
			assertStoreAgrees(t, s, "A", map[int]*array.Dense{1: v1, 2: v2})
		})
	}
}

// TestInsertEncodeFailureSweepsOrphans covers the stage-time failure
// site: chunk blobs appended before a mid-encode fault must be
// reclaimed immediately — on non-durable stores too, which never run a
// recovery sweep — and counted in Stats.
func TestInsertEncodeFailureSweepsOrphans(t *testing.T) {
	for _, durable := range []bool{true, false} {
		for _, compacted := range []bool{true, false} {
			t.Run(fmt.Sprintf("durable=%v/coLocate=%v", durable, compacted), func(t *testing.T) {
				ffs := &failFS{FS: fsio.OS}
				opts := smallOpts()
				opts.ChunkBytes = 1 << 10 // several chunks per version
				opts.Durability = durable
				opts.FS = ffs
				s := testStore(t, opts)
				const side = 32
				if err := s.CreateArray(schema2D("A", side)); err != nil {
					t.Fatal(err)
				}
				v1 := crashContent(1, side)
				if _, err := s.Insert("A", DensePayload(v1)); err != nil {
					t.Fatal(err)
				}
				compactIf(t, s, "A", compacted)
				// fail the third chunk frame the next insert appends (its
				// header, the fifth write to the log): two frames are
				// already on disk and must be swept
				writes := 0
				ffs.arm(func(op, path string) bool {
					if op != "write" || !strings.HasPrefix(filepath.Base(filepath.Dir(path)), "chunks") {
						return false
					}
					writes++
					return writes == 5
				})
				if _, err := s.Insert("A", DensePayload(crashContent(2, side))); !errors.Is(err, errInjected) {
					t.Fatalf("insert under an append fault returned %v, want the injected failure", err)
				}
				if st := s.Stats(); st.InsertOrphanFiles == 0 || st.InsertOrphanBytes == 0 {
					t.Fatalf("stage failure reclaimed nothing (files=%d bytes=%d)",
						st.InsertOrphanFiles, st.InsertOrphanBytes)
				}
				rep, err := s.Verify("A")
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Ok() {
					t.Fatalf("store fails verify after failed stage: %v", rep.Problems)
				}
				if rep.DanglingBytes != 0 {
					t.Fatalf("%d orphaned bytes left dangling on a %s store",
						rep.DanglingBytes, map[bool]string{true: "durable", false: "non-durable"}[durable])
				}
				// still fully writable, id unaffected
				if id, err := s.Insert("A", DensePayload(crashContent(3, side))); err != nil || id != 2 {
					t.Fatalf("insert after failed stage: id=%d err=%v, want id 2", id, err)
				}
			})
		}
	}
}

// TestInsertBatchAtomicAndChained pins a many-payload Write: one
// commit for the whole batch (atomic on failure), contiguous
// ids, lineage chaining member-to-member, and intra-batch delta
// encoding (later members delta against earlier ones staged in the
// same call).
func TestInsertBatchAtomicAndChained(t *testing.T) {
	ffs := &failFS{FS: fsio.OS}
	opts := smallOpts()
	opts.ChunkBytes = 1 << 10
	opts.FS = ffs
	s := testStore(t, opts)
	const side = 32
	if err := s.CreateArray(schema2D("B", side)); err != nil {
		t.Fatal(err)
	}
	series := evolvingVersions(3, side, 7)
	var ps []Payload
	for _, v := range series {
		ps = append(ps, DensePayload(v))
	}
	ids, err := writeOne(s, "B", ps)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 || ids[0] != 1 || ids[1] != 2 || ids[2] != 3 {
		t.Fatalf("batch ids = %v, want [1 2 3]", ids)
	}
	infos, err := versionsOf(s, "B")
	if err != nil {
		t.Fatal(err)
	}
	for i, vi := range infos {
		if i > 0 && (len(vi.Parents) != 1 || vi.Parents[0] != ids[i-1]) {
			t.Fatalf("batch member %d has parents %v, want [%d]", vi.ID, vi.Parents, ids[i-1])
		}
		got, err := s.Select("B", vi.ID)
		if err != nil || !got.Dense.Equal(series[i]) {
			t.Fatalf("batch member %d wrong after commit (%v)", vi.ID, err)
		}
	}
	// the evolving series deltas well: at least one later member should
	// have delta-encoded against an earlier one staged in the same call
	chained := false
	for _, vi := range infos[1:] {
		if len(vi.DeltaBases) > 0 {
			chained = true
		}
	}
	if !chained {
		t.Fatal("no batch member delta-encoded against an earlier member of the same batch")
	}

	// a fault under the shared commit must abort the WHOLE batch (a
	// failed manifest-log open is benign: nothing was appended)
	ffs.arm(func(op, path string) bool {
		return op == "append" && strings.HasSuffix(path, ".log") &&
			strings.Contains(path, manifestPrefix)
	})
	if _, err := writeOne(s, "B", []Payload{
		DensePayload(crashContent(10, side)),
		DensePayload(crashContent(11, side)),
	}); !errors.Is(err, errInjected) {
		t.Fatalf("batch under a commit fault returned %v, want the injected failure", err)
	}
	infos, err = versionsOf(s, "B")
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 3 {
		t.Fatalf("failed batch committed partially: %d versions, want 3", len(infos))
	}
	if _, err := s.Select("B", 4); err == nil {
		t.Fatal("phantom batch member selectable after failed shared commit")
	}
	rep, err := s.Verify("B")
	if err != nil || !rep.Ok() {
		t.Fatalf("verify after failed batch: %v %v", err, rep.Problems)
	}
	if rep.DanglingBytes != 0 {
		t.Fatalf("failed batch left %d bytes dangling", rep.DanglingBytes)
	}
}

// TestGroupCommitStress runs 8 durable single-insert writers across 4
// arrays beside 3 cross-array writers over overlapping pairs ({S0,S1},
// {S1,S2}, {S2,S0}) — the -race and deadlock net for the write latches'
// name order and for holding them from stage to install. Every
// acknowledged write must read back byte-identical, every array's ids
// must be contiguous, every write must be exactly one commit record, and
// a recovery reopen must agree with the live store. It runs without a
// cache and with one small enough to evict: committed writes admit their
// chunks concurrently with the next writers reading their delta bases.
func TestGroupCommitStress(t *testing.T) {
	for _, cacheBytes := range []int64{0, 64 << 10} {
		t.Run(fmt.Sprintf("cache=%d", cacheBytes), func(t *testing.T) {
			groupCommitStress(t, cacheBytes)
		})
	}
}

func groupCommitStress(t *testing.T, cacheBytes int64) {
	const (
		writers    = 8
		arrays     = 4
		perWriter  = 8
		side       = 16
		arrayNameF = "S%d"
	)
	pairs := [][2]int{{0, 1}, {1, 2}, {2, 0}}
	opts := smallOpts()
	opts.ChunkBytes = 1 << 10
	opts.Durability = true
	opts.CacheBytes = cacheBytes
	s := testStore(t, opts)
	for a := 0; a < arrays; a++ {
		if err := s.CreateArray(schema2D(fmt.Sprintf(arrayNameF, a), side)); err != nil {
			t.Fatal(err)
		}
	}
	var (
		mu        sync.Mutex
		committed = make([]map[int]*array.Dense, arrays)
		wg        sync.WaitGroup
		failc     = make(chan error, writers+len(pairs))
	)
	for a := range committed {
		committed[a] = map[int]*array.Dense{}
	}
	record := func(a, id int, content *array.Dense) {
		mu.Lock()
		committed[a][id] = content
		mu.Unlock()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			a := w % arrays
			for i := 0; i < perWriter; i++ {
				content := crashContent(int64(w*1000+i), side)
				id, err := s.Insert(fmt.Sprintf(arrayNameF, a), DensePayload(content))
				if err != nil {
					failc <- err
					return
				}
				record(a, id, content)
			}
		}(w)
	}
	for p, pair := range pairs {
		wg.Add(1)
		go func(p int, pair [2]int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				var puts []MultiInsert
				var contents []*array.Dense
				for _, a := range pair {
					c := crashContent(int64(100000+p*1000+i*10+a), side)
					contents = append(contents, c)
					puts = append(puts, MultiInsert{Array: fmt.Sprintf(arrayNameF, a), Payloads: []Payload{DensePayload(c)}})
				}
				ids, err := s.Write(context.Background(), puts)
				if err != nil {
					failc <- err
					return
				}
				for k, a := range pair {
					record(a, ids[k][0], contents[k])
				}
			}
		}(p, pair)
	}
	within(t, "concurrent single and cross-array writers", wg.Wait)
	close(failc)
	for err := range failc {
		t.Fatal(err)
	}
	st := s.Stats()
	writes := int64((writers + len(pairs)) * perWriter)
	versions := int64((writers + 2*len(pairs)) * perWriter)
	if st.GroupCommits != writes || st.GroupCommitVersions != versions {
		t.Fatalf("%d commit records installing %d versions, want %d and %d", st.GroupCommits, st.GroupCommitVersions, writes, versions)
	}
	if cacheBytes > 0 && (st.CacheHits == 0 || st.CacheEvictions == 0) {
		t.Fatalf("the cache saw %d hits and %d evictions, want both", st.CacheHits, st.CacheEvictions)
	}
	for a := 0; a < arrays; a++ {
		for id := 1; id <= len(committed[a]); id++ {
			if committed[a][id] == nil {
				t.Fatalf("S%d: ids not contiguous, %d missing of %d", a, id, len(committed[a]))
			}
		}
		assertStoreAgrees(t, s, fmt.Sprintf(arrayNameF, a), committed[a])
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
