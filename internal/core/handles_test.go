package core

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// chunkDirs lists the chunk-generation directories currently on disk for
// one array, sorted order not guaranteed.
func chunkDirs(t *testing.T, storeDir, name string) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(storeDir, name))
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "chunks") && !strings.HasPrefix(e.Name(), "chunks.build") {
			dirs = append(dirs, e.Name())
		}
	}
	return dirs
}

// openHandles reports how many chunk file handles the table holds for
// one generation directory.
func openHandles(tab *chunkFiles, dir string) int {
	tab.mu.Lock()
	defer tab.mu.Unlock()
	return len(tab.gens[dir])
}

// liveChunksDir returns the committed generation directory of an array.
func liveChunksDir(s *Store, name string) string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.arrays[name].chunksDir()
}

// TestChunkFilesTable unit-tests the chunk handle table: one handle per
// file, retire closes a generation's handles and a later lookup opens a
// fresh set, forget closes one file's handle, and closeAll is
// idempotent.
func TestChunkFilesTable(t *testing.T) {
	gen := t.TempDir()
	for _, name := range []string{"a", "b"} {
		if err := os.WriteFile(filepath.Join(gen, name), []byte(name), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var tab chunkFiles
	fa, err := tab.open(gen, "a")
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := tab.open(gen, "a"); again != fa {
		t.Fatal("second open of one file returned a different handle")
	}
	if _, err := tab.open(gen, "b"); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.open(gen, "missing"); err == nil {
		t.Fatal("open of a missing file succeeded")
	}
	if got := openHandles(&tab, gen); got != 2 {
		t.Fatalf("handles = %d, want 2 (a failed open caches nothing)", got)
	}

	tab.retire(gen)
	if got := openHandles(&tab, gen); got != 0 {
		t.Fatalf("handles after retire = %d, want 0", got)
	}
	if _, err := fa.ReadAt(make([]byte, 1), 0); err == nil {
		t.Fatal("retire left a handle open")
	}
	fresh, err := tab.open(gen, "a")
	if err != nil {
		t.Fatal(err)
	}
	if fresh == fa {
		t.Fatal("lookup after retire returned the retired handle")
	}

	tab.forget(filepath.Join(gen, "a"))
	if _, err := fresh.ReadAt(make([]byte, 1), 0); err == nil {
		t.Fatal("forget left the handle open")
	}
	if got := openHandles(&tab, gen); got != 0 {
		t.Fatalf("handles after forget = %d, want 0", got)
	}

	fb, err := tab.open(gen, "b")
	if err != nil {
		t.Fatal(err)
	}
	tab.closeAll()
	tab.closeAll() // idempotent
	if _, err := fb.ReadAt(make([]byte, 1), 0); err == nil {
		t.Fatal("closeAll left a handle open")
	}
}

// TestFailedStageDoesNotPoisonReads is the stale-handle regression: the
// failed batch's staging reads open its new chain files, the failure
// sweep removes them, and the next insert recreates them under the same
// names. A handle left open on the removed file would serve the failed
// batch's bytes — with a valid CRC — as the committed version 1.
func TestFailedStageDoesNotPoisonReads(t *testing.T) {
	s := testStore(t, smallOpts())
	defer s.Close()
	if err := s.CreateArray(schema2D("P", 16)); err != nil {
		t.Fatal(err)
	}
	a := evolvingVersions(1, 16, 31)[0]
	b := a.Clone()
	for i := int64(0); i < b.NumCells(); i++ {
		b.SetBits(i, a.Bits(i)+1000) // every cell differs from A
	}
	// the delta-list member reads staged version 1 back, then fails: its
	// one coordinate does not address the 2-D array
	bad := DeltaListPayload(1, []CellUpdate{{Coords: []int64{0}}})
	if _, err := writeOne(s, "P", []Payload{DensePayload(a), bad}); err == nil {
		t.Fatal("batch with a malformed delta-list succeeded")
	}
	id, err := s.Insert("P", DensePayload(b))
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 {
		t.Fatalf("insert after the failed batch got id %d, want 1", id)
	}
	got, err := s.Select("P", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Dense.Equal(b) {
		t.Fatal("version 1 reads the failed batch's cells, not the committed ones")
	}
}

// TestChunkHandlesBounded pins the read path's resource bound: a
// generation holds one handle per chunk file however many versions its
// chain files grow by, a retired generation holds none, and Close leaves
// no descriptor open under the store directory.
func TestChunkHandlesBounded(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, smallOpts()) // co-located; 4 KB chunks
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.CreateArray(schema2D("H", 64)); err != nil { // 4 chunks
		t.Fatal(err)
	}
	versions := evolvingVersions(64, 64, 32)
	for i, v := range versions {
		if _, err := s.Insert("H", DensePayload(v)); err != nil {
			t.Fatal(err)
		}
		got, err := s.Select("H", i+1)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Dense.Equal(v) {
			t.Fatalf("round %d: version %d mismatch", i, i+1)
		}
		if n := openHandles(&s.files, liveChunksDir(s, "H")); n != 4 {
			t.Fatalf("round %d: generation holds %d handles, want 4", i, n)
		}
	}
	old := liveChunksDir(s, "H")
	if err := s.Reorganize("H", ReorganizeOptions{Policy: PolicyLinearChain}); err != nil {
		t.Fatal(err)
	}
	if n := openHandles(&s.files, old); n != 0 {
		t.Fatalf("retired generation still holds %d handles", n)
	}
	if _, err := s.Select("H", len(versions)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if runtime.GOOS != "linux" {
		t.Skip("descriptor check needs /proc/self/fd")
	}
	root, err := filepath.EvalSymlinks(dir)
	if err != nil {
		t.Fatal(err)
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	for _, fd := range fds {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
		if err == nil && strings.HasPrefix(target, root+string(filepath.Separator)) {
			t.Errorf("fd %s still open on %s after Close", fd.Name(), target)
		}
	}
}

// TestChunkReadCounters checks that cold chunk reads are counted, that
// every version reads back byte-identical, and that warm selects are
// cache hits that read no chunk at all.
func TestChunkReadCounters(t *testing.T) {
	s := testStore(t, concurrencyOpts())
	if err := s.CreateArray(schema2D("MM", 64)); err != nil {
		t.Fatal(err)
	}
	versions := evolvingVersions(4, 64, 21)
	for _, v := range versions {
		if _, err := s.Insert("MM", DensePayload(v)); err != nil {
			t.Fatal(err)
		}
	}
	s = reopen(t, s)
	defer s.Close()
	selectAll := func(phase string) {
		for i, want := range versions {
			got, err := s.Select("MM", i+1)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Dense.Equal(want) {
				t.Fatalf("version %d mismatch on %s select", i+1, phase)
			}
		}
	}
	selectAll("cold")
	st := s.Stats()
	if st.ChunksRead == 0 || st.BytesRead == 0 {
		t.Fatalf("cold selects counted no chunk reads: %+v", st)
	}
	selectAll("warm")
	if got := s.Stats().ChunksRead; got != st.ChunksRead {
		t.Fatalf("warm selects read %d chunks", got-st.ChunksRead)
	}
}

// TestGenerationLifecycleStress races concurrent selects against
// Reorganize and Compact retiring generation after generation, then
// deletes the array outright. Under -race this is the safety net for the
// handle lifetime rule — a generation's handles close only under the
// exclusive I/O latch — so reads must stay byte-identical, and every
// retired generation's directory must be gone at the end.
func TestGenerationLifecycleStress(t *testing.T) {
	dir := t.TempDir()
	o := concurrencyOpts()
	o.CacheBytes = 256 << 10 // small cache: constant eviction, so reads keep hitting disk
	s, err := Open(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.CreateArray(schema2D("G", 64)); err != nil {
		t.Fatal(err)
	}
	const seedVersions = 5
	versions := evolvingVersions(seedVersions, 64, 23)
	for _, v := range versions {
		if _, err := s.Insert("G", DensePayload(v)); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	fail := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids := make([]int, seedVersions)
			for i := range ids {
				ids[i] = i + 1
			}
			for i := 0; i < 30; i++ {
				id := (g+i)%seedVersions + 1
				pl, err := s.Select("G", id)
				if err != nil {
					fail <- err
					return
				}
				if !pl.Dense.Equal(versions[id-1]) {
					t.Errorf("select %d content mismatch under generation churn", id)
					return
				}
				if _, err := s.SelectMulti("G", ids); err != nil {
					fail <- err
					return
				}
			}
		}(g)
	}
	// generation churn: alternating re-layouts and compactions, each of
	// which retires the previous generation's handles
	wg.Add(1)
	go func() {
		defer wg.Done()
		policies := []LayoutPolicy{PolicyLinearChain, PolicyHeadBiased, PolicyOptimal}
		for i := 0; i < 3; i++ {
			if err := s.Reorganize("G", ReorganizeOptions{Policy: policies[i%len(policies)]}); err != nil {
				fail <- err
				return
			}
			if err := s.Compact("G"); err != nil {
				fail <- err
				return
			}
		}
	}()
	wg.Wait()
	close(fail)
	for err := range fail {
		t.Fatal(err)
	}
	// every retired generation's directory was removed
	dirs := chunkDirs(t, dir, "G")
	if len(dirs) != 1 {
		t.Fatalf("chunk dirs after churn = %v, want exactly the committed generation", dirs)
	}
	for i, want := range versions {
		got, err := s.Select("G", i+1)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Dense.Equal(want) {
			t.Fatalf("version %d corrupted after generation churn", i+1)
		}
	}
	// deleting the array retires the final generation and removes the
	// whole directory before DeleteArray returns
	if err := s.DeleteArray("G"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "G")); !os.IsNotExist(err) {
		t.Fatalf("array dir survived DeleteArray (err=%v)", err)
	}
}

// TestStaleGenerationSweptOnReopen covers a crash between a generation
// commit and the old generation's removal: the old chunks.gN directory
// is still on disk. Recovery at the next durable open must sweep it and
// leave a store that verifies clean.
func TestStaleGenerationSweptOnReopen(t *testing.T) {
	dir := t.TempDir()
	opts := smallOpts()
	opts.ChunkBytes = 1 << 10
	opts.Durability = true
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateArray(schema2D("R", 16)); err != nil {
		t.Fatal(err)
	}
	versions := evolvingVersions(3, 16, 24)
	for _, v := range versions {
		if _, err := s.Insert("R", DensePayload(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Reorganize("R", ReorganizeOptions{Policy: PolicyLinearChain}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// resurrect the retired generation's directory, exactly as a crash
	// between the generation commit and its removal leaves it
	stale := filepath.Join(dir, "R", "chunks")
	if err := os.MkdirAll(stale, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(stale, "A.0"), []byte("orphaned generation bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Recovery().RemovedFiles == 0 {
		t.Fatal("recovery did not sweep the stale generation directory")
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale generation directory survived recovery (err=%v)", err)
	}
	rep, err := r.Verify("R")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("store fails verify after sweeping stale generation: %v", rep.Problems)
	}
	for i, want := range versions {
		got, err := r.Select("R", i+1)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Dense.Equal(want) {
			t.Fatalf("version %d corrupted after recovery", i+1)
		}
	}
}
