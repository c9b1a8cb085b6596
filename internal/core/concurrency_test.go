package core

import (
	"context"
	"maps"
	"reflect"
	"strings"
	"sync"
	"testing"

	"arrayvers/internal/array"
)

// concurrencyOpts enables the hot-path machinery the stress tests
// exercise: multi-chunk arrays, the worker pool, and the store cache.
func concurrencyOpts() Options {
	o := smallOpts()
	o.Parallelism = 4
	o.CacheBytes = 4 << 20
	return o
}

// TestConcurrentSelectInsertReorganize hammers one store from selecting,
// inserting, and reorganizing goroutines at once. Run under -race this
// is the safety net for the narrowed locking: metadata snapshots, the
// shared chunk cache, parallel chunk workers, and generation pins all
// get exercised against concurrent mutation.
func TestConcurrentSelectInsertReorganize(t *testing.T) {
	s := testStore(t, concurrencyOpts())
	if err := s.CreateArray(schema2D("C", 64)); err != nil {
		t.Fatal(err)
	}
	const seedVersions = 6
	versions := evolvingVersions(seedVersions+8, 64, 11)
	for _, v := range versions[:seedVersions] {
		if _, err := s.Insert("C", DensePayload(v)); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	fail := make(chan error, 64)
	// selecting goroutines: full selects, stacked multi-selects, and
	// region selects over the seed versions (which stay live throughout)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids := make([]int, seedVersions)
			for i := range ids {
				ids[i] = i + 1
			}
			for i := 0; i < 25; i++ {
				id := (g+i)%seedVersions + 1
				pl, err := s.Select("C", id)
				if err != nil {
					fail <- err
					return
				}
				if !pl.Dense.Equal(versions[id-1]) {
					t.Errorf("select %d content mismatch", id)
					return
				}
				if _, err := s.SelectMulti("C", ids); err != nil {
					fail <- err
					return
				}
				if _, err := s.SelectRegion("C", id, array.NewBox([]int64{8, 8}, []int64{40, 40})); err != nil {
					fail <- err
					return
				}
			}
		}(g)
	}
	// inserting goroutine
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, v := range versions[seedVersions:] {
			if _, err := s.Insert("C", DensePayload(v)); err != nil {
				fail <- err
				return
			}
		}
	}()
	// reorganizing goroutine
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if err := s.Reorganize("C", ReorganizeOptions{Policy: PolicyLinearChain}); err != nil {
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
	// everything must still decode correctly after the storm
	for i, want := range versions {
		got, err := s.Select("C", i+1)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Dense.Equal(want) {
			t.Fatalf("version %d corrupted after concurrent workload", i+1)
		}
	}
}

// TestCacheServesRepeatedSelects checks that a second select of the same
// version is served from the store cache without touching disk.
func TestCacheServesRepeatedSelects(t *testing.T) {
	s := testStore(t, concurrencyOpts())
	if err := s.CreateArray(schema2D("H", 64)); err != nil {
		t.Fatal(err)
	}
	versions := evolvingVersions(4, 64, 12)
	for _, v := range versions {
		if _, err := s.Insert("H", DensePayload(v)); err != nil {
			t.Fatal(err)
		}
	}
	s = reopen(t, s)
	defer s.Close()
	if _, err := s.Select("H", 4); err != nil {
		t.Fatal(err)
	}
	first := s.Stats()
	if first.CacheMisses == 0 {
		t.Fatal("cold select recorded no cache misses")
	}
	if _, err := s.Select("H", 4); err != nil {
		t.Fatal(err)
	}
	second := s.Stats()
	if second.CacheHits == 0 {
		t.Fatal("warm select recorded no cache hits")
	}
	if second.ChunksRead != first.ChunksRead {
		t.Fatalf("warm select read %d chunks from disk", second.ChunksRead-first.ChunksRead)
	}
	// the warm select of the chain head must not have re-walked ancestors
	pl, err := s.Select("H", 4)
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Dense.Equal(versions[3]) {
		t.Fatal("cached content mismatch")
	}
}

// TestCacheInvalidatedOnReorganize checks that Reorganize drops the
// array's cached chunks and later selects still see correct content.
func TestCacheInvalidatedOnReorganize(t *testing.T) {
	s := testStore(t, concurrencyOpts())
	if err := s.CreateArray(schema2D("I", 64)); err != nil {
		t.Fatal(err)
	}
	versions := evolvingVersions(5, 64, 13)
	for _, v := range versions {
		if _, err := s.Insert("I", DensePayload(v)); err != nil {
			t.Fatal(err)
		}
	}
	for i := range versions {
		if _, err := s.Select("I", i+1); err != nil {
			t.Fatal(err)
		}
	}
	if s.Stats().CacheEntries == 0 {
		t.Fatal("selects populated no cache entries")
	}
	if err := s.Reorganize("I", ReorganizeOptions{Policy: PolicyHeadBiased}); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().CacheEntries; got != 0 {
		t.Fatalf("reorganize left %d cache entries", got)
	}
	for i, want := range versions {
		got, err := s.Select("I", i+1)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Dense.Equal(want) {
			t.Fatalf("version %d mismatch after reorganize", i+1)
		}
	}
}

// TestCacheInvalidatedOnDeleteVersion checks DeleteVersion invalidation.
func TestCacheInvalidatedOnDeleteVersion(t *testing.T) {
	s := testStore(t, concurrencyOpts())
	if err := s.CreateArray(schema2D("D", 64)); err != nil {
		t.Fatal(err)
	}
	versions := evolvingVersions(4, 64, 14)
	for _, v := range versions {
		if _, err := s.Insert("D", DensePayload(v)); err != nil {
			t.Fatal(err)
		}
	}
	for i := range versions {
		if _, err := s.Select("D", i+1); err != nil {
			t.Fatal(err)
		}
	}
	entriesBefore := s.Stats().CacheEntries
	if err := s.DeleteVersion("D", 2); err != nil {
		t.Fatal(err)
	}
	// invalidation is targeted: only the deleted version's chunks drop,
	// the rest of the warm cache survives
	after := s.Stats()
	if after.CacheEntries >= entriesBefore {
		t.Fatalf("delete-version dropped no cache entries (%d -> %d)", entriesBefore, after.CacheEntries)
	}
	if after.CacheEntries == 0 {
		t.Fatal("delete-version flushed the whole array's cache")
	}
	if _, err := s.Select("D", 2); err == nil {
		t.Fatal("deleted version still selectable")
	}
	// surviving versions decode correctly and stay warm (no disk reads)
	readsBefore := s.Stats().ChunksRead
	for _, id := range []int{1, 3, 4} {
		got, err := s.Select("D", id)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Dense.Equal(versions[id-1]) {
			t.Fatalf("version %d mismatch after delete", id)
		}
	}
	if got := s.Stats().ChunksRead; got != readsBefore {
		t.Fatalf("surviving versions were not served from cache (%d extra chunk reads)", got-readsBefore)
	}
}

// TestCacheEpochAfterDeleteAndRecreate is the nastiest invalidation
// case: delete an array, recreate one with the same name and version
// numbering but different content, and make sure reads cannot be served
// from the old generation's cache entries.
func TestCacheEpochAfterDeleteAndRecreate(t *testing.T) {
	s := testStore(t, concurrencyOpts())
	if err := s.CreateArray(schema2D("E", 64)); err != nil {
		t.Fatal(err)
	}
	oldContent := evolvingVersions(1, 64, 15)[0]
	if _, err := s.Insert("E", DensePayload(oldContent)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Select("E", 1); err != nil {
		t.Fatal(err) // populate the cache
	}
	if err := s.DeleteArray("E"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateArray(schema2D("E", 64)); err != nil {
		t.Fatal(err)
	}
	newContent := evolvingVersions(1, 64, 16)[0]
	if _, err := s.Insert("E", DensePayload(newContent)); err != nil {
		t.Fatal(err)
	}
	got, err := s.Select("E", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Dense.Equal(newContent) {
		t.Fatal("select served stale content from the deleted array's cache")
	}
}

// TestSparseDeltaListInsertDoesNotCorruptCache guards the clone-on-serve
// rule: the delta-list insert form mutates the plane it reads from the
// base version, which must never alias a cache-resident sparse array.
func TestSparseDeltaListInsertDoesNotCorruptCache(t *testing.T) {
	o := concurrencyOpts()
	s := testStore(t, o)
	schema := schema2D("S", 32)
	if err := s.CreateArray(schema); err != nil {
		t.Fatal(err)
	}
	sp := array.MustSparse(array.Int32, []int64{32, 32}, 0)
	sp.SetBits(5, 7)
	sp.SetBits(100, 9)
	if _, err := s.Insert("S", SparsePayload(sp)); err != nil {
		t.Fatal(err)
	}
	// populate the cache with version 1's content
	before, err := s.Select("S", 1)
	if err != nil {
		t.Fatal(err)
	}
	// delta-list insert off version 1 flips a cell
	if _, err := s.Insert("S", DeltaListPayload(1, []CellUpdate{{Coords: []int64{0, 5}, Bits: 42}})); err != nil {
		t.Fatal(err)
	}
	after, err := s.Select("S", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !after.Sparse.Equal(before.Sparse) {
		t.Fatal("delta-list insert mutated the cached base version")
	}
	v2, err := s.Select("S", 2)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Sparse.Bits(5) != 42 {
		t.Fatalf("version 2 update lost: cell = %d", v2.Sparse.Bits(5))
	}
}

// TestParallelSelectMatchesSerial decodes the same store with a serial
// uncached reader and a parallel cached reader and compares results.
func TestParallelSelectMatchesSerial(t *testing.T) {
	dir := t.TempDir()
	build := smallOpts()
	build.Parallelism = 1
	s, err := Open(dir, build)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateArray(schema2D("M", 64)); err != nil {
		t.Fatal(err)
	}
	versions := evolvingVersions(6, 64, 17)
	ids := make([]int, len(versions))
	for i, v := range versions {
		if ids[i], err = s.Insert("M", DensePayload(v)); err != nil {
			t.Fatal(err)
		}
	}
	serial, err := s.SelectMulti("M", ids)
	if err != nil {
		t.Fatal(err)
	}
	tuned := smallOpts()
	tuned.Parallelism = 8
	tuned.CacheBytes = 8 << 20
	s2, err := Open(dir, tuned)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := s2.SelectMulti("M", ids)
	if err != nil {
		t.Fatal(err)
	}
	if !parallel.Equal(serial) {
		t.Fatal("parallel cached select disagrees with serial uncached select")
	}
	// run it again warm to cover the all-hits path
	warm, err := s2.SelectMulti("M", ids)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Equal(serial) {
		t.Fatal("warm select disagrees with serial select")
	}
}

// TestConcurrentSelectWithLogReencode: DeleteVersion re-encodes its
// children by appending to the data log that lock-free readers keep
// decoding their snapshots' frames from, while a writer appends to it
// too. A re-encode that rewrote a referenced frame would fail those
// readers with decode errors like "delta: unknown method byte".
func TestConcurrentSelectWithLogReencode(t *testing.T) {
	s := testStore(t, concurrencyOpts())
	if err := s.CreateArray(schema2D("PV", 64)); err != nil {
		t.Fatal(err)
	}
	const seedVersions = 4
	versions := evolvingVersions(seedVersions+20, 64, 18)
	for _, v := range versions[:seedVersions] {
		if _, err := s.Insert("PV", DensePayload(v)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	fail := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids := []int{1, 2, 3, 4}
			for i := 0; i < 40; i++ {
				if _, err := s.SelectMulti("PV", ids); err != nil {
					fail <- err
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, v := range versions[seedVersions:] {
			if _, err := s.Insert("PV", DensePayload(v)); err != nil {
				fail <- err
				return
			}
		}
		// exercise the DeleteVersion re-encode path under load too
		if err := s.DeleteVersion("PV", 3); err != nil {
			fail <- err
		}
	}()
	wg.Wait()
	close(fail)
	for err := range fail {
		// readers may observe version 3 disappearing; that's the one
		// legitimate error under this schedule
		if !strings.Contains(err.Error(), "no version 3") {
			t.Fatal(err)
		}
	}
	for i, want := range versions[:seedVersions] {
		if i+1 == 3 {
			continue
		}
		got, err := s.Select("PV", i+1)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Dense.Equal(want) {
			t.Fatalf("version %d corrupted", i+1)
		}
	}
}

// TestViewSharesRecordsSafely holds one reader's snapshot view while a
// Write, a DeleteVersion and a Reorganize commit on the same array.
// Views share the committed version records instead of copying them, so
// every mutator must copy a record before it edits it: the view's chunk
// entries, and the bytes it reads while it pins its generation, stay
// identical throughout — the Reorganize's retired generation included.
// Under -race an in-place edit shows as a race.
func TestViewSharesRecordsSafely(t *testing.T) {
	s := testStore(t, concurrencyOpts())
	if err := s.CreateArray(schema2D("V", 32)); err != nil {
		t.Fatal(err)
	}
	versions := evolvingVersions(5, 32, 23)
	for _, v := range versions[:4] {
		if _, err := s.Insert("V", DensePayload(v)); err != nil {
			t.Fatal(err)
		}
	}
	v, release, err := s.snapshot("V")
	if err != nil {
		t.Fatal(err)
	}
	st := v.st
	entries := func() map[int]map[string]map[string]chunkEntry {
		out := map[int]map[string]map[string]chunkEntry{}
		for id, vm := range v.byID {
			out[id] = map[string]map[string]chunkEntry{}
			for attr, chunks := range vm.Chunks {
				out[id][attr] = maps.Clone(chunks)
			}
		}
		return out
	}
	full := array.BoxOf(st.Schema.Shape())
	reads := func() map[int]Plane {
		out := map[int]Plane{}
		for _, id := range v.ids {
			pl, err := s.readRegionView(context.Background(), v, id, "A", full, newChunkCache(true), nil)
			if err != nil {
				t.Fatalf("view read of version %d: %v", id, err)
			}
			out[id] = pl
		}
		return out
	}
	wantEntries, wantReads := entries(), reads()
	check := func(label string, read bool) {
		t.Helper()
		if !reflect.DeepEqual(entries(), wantEntries) {
			t.Fatalf("%s: the view's chunk entries changed", label)
		}
		if !read {
			return
		}
		for id, pl := range reads() {
			if !pl.Dense.Equal(wantReads[id].Dense) {
				t.Fatalf("%s: the view reads version %d differently", label, id)
			}
		}
	}
	// the mutators wait for no reader: each returns with the view still
	// pinning its generation
	if _, err := s.Insert("V", DensePayload(versions[4])); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteVersion("V", 2); err != nil { // re-encodes version 3
		t.Fatal(err)
	}
	check("after a Write and a DeleteVersion", true)
	if err := s.Reorganize("V", ReorganizeOptions{Policy: PolicyLinearChain}); err != nil {
		t.Fatal(err)
	}
	if st.current == v.gen {
		t.Fatal("the Reorganize did not retire the view's generation")
	}
	check("after a Reorganize", true)
	release()
	check("after every mutator returned", false)
}
