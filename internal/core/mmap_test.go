package core

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"arrayvers/internal/fsio"
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

// TestGenMapsRefcount unit-tests the mapping lifetime protocol: the
// generation's live reference, counted references for cached planes,
// deferred unlink on retire, and the inline fallbacks.
func TestGenMapsRefcount(t *testing.T) {
	if !fsio.MapSupported() {
		t.Skip("mmap unsupported on this platform")
	}
	gm := newGenMaps(false)
	ms := gm.lookup("gen-a")
	if ms == nil {
		t.Fatal("lookup returned nil with mapping enabled")
	}
	if gm.lookup("gen-a") != ms {
		t.Fatal("second lookup did not return the same live set")
	}
	// a cached zero-copy plane takes a counted reference
	if !ms.acquire() {
		t.Fatal("acquire failed on a live set")
	}
	unlinked := false
	gm.retire("gen-a", func() { unlinked = true })
	if unlinked {
		t.Fatal("unlink ran while a cached plane still held the mapping")
	}
	if got := gm.deferred.Load(); got != 1 {
		t.Fatalf("deferred = %d, want 1", got)
	}
	// retire removed the set from the live table: a fresh lookup must not
	// resurrect the retired generation
	if gm.lookup("gen-a") == ms {
		t.Fatal("lookup returned a retired set")
	}
	// the last reference out runs the deferred unlink exactly once
	ms.release()
	if !unlinked {
		t.Fatal("deferred unlink did not run when the last reference drained")
	}
	if ms.acquire() {
		t.Fatal("acquire succeeded after the set's references drained")
	}
	unlinked = false
	ms.release() // over-release must not re-run the closure or underflow
	if unlinked {
		t.Fatal("retire closure ran twice")
	}

	// retiring a never-mapped directory unlinks inline
	ran := false
	gm.retire("gen-never-mapped", func() { ran = true })
	if !ran {
		t.Fatal("retire of an unmapped generation did not unlink inline")
	}

	// with no counted references the retire unlinks inline and is not
	// counted as deferred
	ms2 := gm.lookup("gen-b")
	ran = false
	gm.retire("gen-b", func() { ran = true })
	if !ran {
		t.Fatal("retire with only the live reference did not unlink inline")
	}
	if got := gm.deferred.Load(); got != 1 {
		t.Fatalf("inline unlink counted as deferred (deferred = %d)", got)
	}
	if ms2.acquire() {
		t.Fatal("acquire succeeded on a fully retired set")
	}

	// disabled mapping degrades to the pre-mmap behavior everywhere
	off := newGenMaps(true)
	if off.lookup("x") != nil {
		t.Fatal("disabled genMaps returned a set")
	}
	ran = false
	off.retire("x", func() { ran = true })
	if !ran {
		t.Fatal("disabled genMaps did not unlink inline")
	}

	gm.closeAll()
	gm.closeAll() // idempotent
}

// TestMmapReadPathCounters checks that the default (mmap-on) read path
// serves chunk payloads from mappings, caches zero-copy planes, and that
// the plain read() path — the only one where fsio.MapSupported is false —
// reads the same bytes.
func TestMmapReadPathCounters(t *testing.T) {
	dir := t.TempDir()
	opts := concurrencyOpts()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateArray(schema2D("MM", 64)); err != nil {
		t.Fatal(err)
	}
	versions := evolvingVersions(4, 64, 21)
	for _, v := range versions {
		if _, err := s.Insert("MM", DensePayload(v)); err != nil {
			t.Fatal(err)
		}
	}
	s.ResetStats()
	for i, want := range versions {
		got, err := s.Select("MM", i+1)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Dense.Equal(want) {
			t.Fatalf("version %d mismatch on the mmap read path", i+1)
		}
	}
	st := s.Stats()
	if fsio.MapSupported() {
		if st.MmapReads == 0 {
			t.Fatal("no chunk reads served from mappings")
		}
		if st.MmapPlanes == 0 || st.MmapPlaneBytes == 0 {
			t.Fatalf("no zero-copy planes cached (planes=%d bytes=%d)", st.MmapPlanes, st.MmapPlaneBytes)
		}
	}
	// warm selects must still be cache hits, not remapped reads
	reads := st.MmapReads
	for i, want := range versions {
		got, err := s.Select("MM", i+1)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Dense.Equal(want) {
			t.Fatalf("version %d mismatch on warm mmap select", i+1)
		}
	}
	if got := s.Stats().MmapReads; got != reads {
		t.Fatalf("warm selects performed %d extra mapped reads", got-reads)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// the same store with mapping off reads identical bytes through
	// read() and records no mmap activity; nothing has been mapped yet
	// when the disabled genMaps is swapped in
	p, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.maps = newGenMaps(true)
	for i, want := range versions {
		got, err := p.Select("MM", i+1)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Dense.Equal(want) {
			t.Fatalf("version %d mismatch with mmap disabled", i+1)
		}
	}
	st = p.Stats()
	if st.ChunksRead == 0 {
		t.Fatal("no chunk reads through read()")
	}
	if st.MmapReads != 0 || st.MmapPlanes != 0 || st.MmapDeferredUnlinks != 0 {
		t.Fatalf("unmapped store recorded mmap activity: %+v", st)
	}
}

// TestDeleteArrayDefersUnlinkPastCachedPlanes pins the deferred-unlink
// protocol on its one deterministic trigger: DeleteArray retires the
// generation while cached zero-copy planes still reference its mapping
// (the cache sweep runs after the drop commits), so the unlink must be
// deferred — and must still land before DeleteArray returns, because
// the sweep drains the references inline. (Rewrites sweep the cache
// when they publish, before they retire, and never need the deferral.)
func TestDeleteArrayDefersUnlinkPastCachedPlanes(t *testing.T) {
	if !fsio.MapSupported() {
		t.Skip("mmap unsupported on this platform")
	}
	dir := t.TempDir()
	s, err := Open(dir, concurrencyOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.CreateArray(schema2D("CD", 64)); err != nil {
		t.Fatal(err)
	}
	versions := evolvingVersions(3, 64, 22)
	for _, v := range versions {
		if _, err := s.Insert("CD", DensePayload(v)); err != nil {
			t.Fatal(err)
		}
	}
	// populate the cache with mmap-backed planes of the current generation
	for i := range versions {
		if _, err := s.Select("CD", i+1); err != nil {
			t.Fatal(err)
		}
	}
	if s.Stats().MmapPlanes == 0 {
		t.Fatal("selects cached no zero-copy planes; the test would not exercise deferral")
	}
	if err := s.DeleteArray("CD"); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().MmapDeferredUnlinks; got == 0 {
		t.Fatal("DeleteArray with cached zero-copy planes did not defer the unlink")
	}
	// the cache sweep drained the references, so the directory is
	// already gone
	if _, err := os.Stat(filepath.Join(dir, "CD")); !os.IsNotExist(err) {
		t.Fatalf("array directory survived DeleteArray (err=%v)", err)
	}
}

// TestMmapGenerationLifecycleStress is the satellite stress test:
// concurrent selects hold mmap-backed cached planes while Reorganize and
// Compact retire generation after generation, then the array is deleted
// outright. Under -race this is the safety net for the mapping lifetime
// protocol — reads must stay byte-identical, nothing may touch unmapped
// memory, and every retired generation's directory must be gone at the
// end.
func TestMmapGenerationLifecycleStress(t *testing.T) {
	dir := t.TempDir()
	o := concurrencyOpts()
	o.CacheBytes = 256 << 10 // small cache: constant eviction of mmap-backed planes
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
	// which retires the previous generation's mapping
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
	// every retired generation's directory must have been unlinked (the
	// cache may still pin the *current* mapping, never an old one)
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
	// deleting the array retires the final generation; the cached planes'
	// references are drained inline, so the whole directory is gone before
	// DeleteArray returns
	if err := s.DeleteArray("G"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "G")); !os.IsNotExist(err) {
		t.Fatalf("array dir survived DeleteArray (err=%v)", err)
	}
}

// TestStaleGenerationSweptOnReopen covers the crash window the deferred
// unlink opens: the generation flip committed, the process died before
// the deferred RemoveAll ran, and the old chunks.gN directory is still
// on disk. Recovery at the next durable open must sweep it and leave a
// store that verifies clean.
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
	// between the generation commit and the deferred unlink leaves it
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
