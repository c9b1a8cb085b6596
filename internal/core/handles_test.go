package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"arrayvers/internal/array"
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

// liveChunksDir returns the committed generation directory of an array.
func liveChunksDir(s *Store, name string) string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.arrays[name].chunksDir()
}

// TestFailedStageDoesNotPoisonReads is the stale-handle regression: the
// failed batch's staging reads open its new data log, the failure
// sweep removes it, and the next insert recreates it under the same
// name. A handle left open on the removed file would serve the failed
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

// TestChunkFDsBounded pins the read path's resource bound in both
// layouts (log-resident, and compacted half-way so the log holds
// column-ordered frames and written ones): a read opens the chunk files it touches and closes them
// before it returns, so no descriptor under the store directory is open
// after any Read, after Reorganize and Compact, or after Close.
func TestChunkFDsBounded(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("descriptor check needs /proc/self/fd")
	}
	if _, err := os.ReadDir("/proc/self/fd"); err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	for _, compacted := range []bool{true, false} {
		t.Run(fmt.Sprintf("colocate=%v", compacted), func(t *testing.T) {
			dir := t.TempDir()
			root, err := filepath.EvalSymlinks(dir)
			if err != nil {
				t.Fatal(err)
			}
			noFDs := func(when string) {
				t.Helper()
				fds, err := os.ReadDir("/proc/self/fd")
				if err != nil {
					t.Fatal(err)
				}
				for _, fd := range fds {
					target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
					if err == nil && strings.HasPrefix(target, root+string(filepath.Separator)) {
						t.Fatalf("%s: fd %s still open on %s", when, fd.Name(), target)
					}
				}
			}
			opts := smallOpts() // 4 KB chunks
			s, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.CreateArray(schema2D("H", 64)); err != nil { // 4 chunks
				t.Fatal(err)
			}
			versions := evolvingVersions(16, 64, 32)
			var ids []int
			readAll := func(when string) {
				t.Helper()
				got, err := s.Read(context.Background(), ReadQuery{Array: "H", IDs: ids})
				if err != nil {
					t.Fatal(err)
				}
				for i, pl := range got {
					if !pl.Dense.Equal(versions[i]) {
						t.Fatalf("%s: version %d mismatch", when, ids[i])
					}
				}
				noFDs(when)
			}
			for i, v := range versions {
				if _, err := s.Insert("H", DensePayload(v)); err != nil {
					t.Fatal(err)
				}
				ids = append(ids, i+1)
				readAll(fmt.Sprintf("after reading versions 1..%d", i+1))
				if i == len(versions)/2 {
					compactIf(t, s, "H", compacted)
				}
			}
			if err := s.Reorganize("H", ReorganizeOptions{Policy: PolicyLinearChain}); err != nil {
				t.Fatal(err)
			}
			noFDs("after Reorganize")
			readAll("after reading the reorganized generation")
			if err := s.Compact("H"); err != nil {
				t.Fatal(err)
			}
			noFDs("after Compact")
			readAll("after reading the compacted generation")
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			noFDs("after Close")
		})
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
// generation lifetime rule — a retired generation's directory goes only
// with the last release of a reader that pinned it — so reads must stay
// byte-identical, and every retired generation's directory must be gone
// once the readers are.
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

// TestPinnedReaderStallsNoMutator holds one snapshot of array A — a
// parked reader — through a Reorganize, a second Select, a Compact, a
// DeleteVersion and a DeleteArray of A. Each returns while the reader
// is parked: none waits for it, and no select queues behind them. The
// parked view still reads its versions byte-identical from the
// generation it pinned, whose directory stays until the release; a
// same-name CreateArray waits for that release, and what it finds is a
// fresh directory.
func TestPinnedReaderStallsNoMutator(t *testing.T) {
	const side = 32
	dir := t.TempDir()
	s, err := Open(dir, concurrencyOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.CreateArray(schema2D("A", side)); err != nil {
		t.Fatal(err)
	}
	versions := evolvingVersions(4, side, 31)
	for _, v := range versions {
		if _, err := s.Insert("A", DensePayload(v)); err != nil {
			t.Fatal(err)
		}
	}
	v, unpin, err := s.snapshot("A")
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	release := func() { once.Do(unpin) }
	defer release()
	pinned := v.gen.dir
	full := array.BoxOf(v.st.Schema.Shape())
	checkView := func(label string) {
		t.Helper()
		for i, want := range versions {
			got, err := s.readRegionView(context.Background(), v, i+1, "A", full, newChunkCache(true), nil)
			if err != nil || !got.Dense.Equal(want) {
				t.Fatalf("%s: the parked view reads version %d differently (%v)", label, i+1, err)
			}
		}
		if _, err := os.Stat(pinned); err != nil {
			t.Fatalf("%s: the pinned generation's directory is gone: %v", label, err)
		}
	}
	run := func(what string, op func() error) {
		t.Helper()
		within(t, what+" beside a parked reader", func() {
			if err := op(); err != nil {
				t.Errorf("%s: %v", what, err)
			}
		})
		checkView("after " + what)
	}
	run("Reorganize", func() error { return s.Reorganize("A", ReorganizeOptions{Policy: PolicyLinearChain}) })
	run("a second Select", func() error {
		got, err := s.Select("A", 3)
		if err == nil && !got.Dense.Equal(versions[2]) {
			err = fmt.Errorf("version 3 reads differently")
		}
		return err
	})
	run("Compact", func() error { return s.Compact("A") })
	run("DeleteVersion", func() error { return s.DeleteVersion("A", 2) })
	run("DeleteArray", func() error { return s.DeleteArray("A") })
	created := make(chan error, 1)
	go func() { created <- s.CreateArray(schema2D("A", side)) }()
	select {
	case err := <-created:
		t.Fatalf("a same-name CreateArray returned (%v) while a reader pinned the dropped array", err)
	case <-time.After(50 * time.Millisecond):
	}
	checkView("beside the waiting CreateArray")
	release()
	within(t, "the CreateArray waiting on the release", func() {
		if err := <-created; err != nil {
			t.Errorf("CreateArray: %v", err)
		}
	})
	entries, err := os.ReadDir(filepath.Join(dir, "A"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "chunks" {
		t.Fatalf("the recreated array's directory holds %v, want one fresh chunks directory", entries)
	}
	if left, _ := os.ReadDir(filepath.Join(dir, "A", "chunks")); len(left) != 0 {
		t.Fatalf("the dropped array's chunk files survived its last release: %v", left)
	}
}

// TestHealLeavesPinnedGeneration heals a degraded array while a reader
// pins the generation a Reorganize retired. The heal's sweep removes
// stale generation debris but leaves the pinned generation, which the
// reader still reads byte-identical; its release removes it.
func TestHealLeavesPinnedGeneration(t *testing.T) {
	const side = 32
	dir := t.TempDir()
	s, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.stopHealer() // heal explicitly, not from the background prober
	if err := s.CreateArray(schema2D("H", side)); err != nil {
		t.Fatal(err)
	}
	versions := evolvingVersions(3, side, 32)
	for _, v := range versions {
		if _, err := s.Insert("H", DensePayload(v)); err != nil {
			t.Fatal(err)
		}
	}
	v, unpin, err := s.snapshot("H")
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	release := func() { once.Do(unpin) }
	defer release()
	pinned := v.gen.dir
	within(t, "Reorganize beside a parked reader", func() {
		if err := s.Reorganize("H", ReorganizeOptions{Policy: PolicyLinearChain}); err != nil {
			t.Error(err)
		}
	})
	debris := filepath.Join(dir, "H", chunksDirName(9))
	if err := os.MkdirAll(debris, 0o755); err != nil {
		t.Fatal(err)
	}
	s.degradeArray("H", errInjected)
	within(t, "Heal beside a parked reader", func() {
		if rep, err := s.Heal(); err != nil || len(rep.Healed) != 1 {
			t.Errorf("heal: %v (report %+v)", err, rep)
		}
	})
	if _, err := os.Stat(debris); !os.IsNotExist(err) {
		t.Errorf("heal left the stale generation %s (err=%v)", debris, err)
	}
	if _, err := os.Stat(pinned); err != nil {
		t.Errorf("heal removed the generation a reader pins: %v", err)
	}
	full := array.BoxOf(v.st.Schema.Shape())
	for i, want := range versions {
		got, err := s.readRegionView(context.Background(), v, i+1, "A", full, newChunkCache(true), nil)
		if err != nil || !got.Dense.Equal(want) {
			t.Errorf("after the heal the pinned view reads version %d differently (%v)", i+1, err)
		}
	}
	release()
	if _, err := os.Stat(pinned); !os.IsNotExist(err) {
		t.Fatalf("the retired generation survived its last release (err=%v)", err)
	}
	if dirs := chunkDirs(t, dir, "H"); len(dirs) != 1 {
		t.Fatalf("chunk dirs after the release = %v, want the committed generation", dirs)
	}
}
