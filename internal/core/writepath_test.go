package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"arrayvers/internal/array"
	"arrayvers/internal/fsio"
	"arrayvers/internal/trace"
)

// Tests for the single write path: what each mutator holds while it
// encodes, syncs and commits, and who guarantees progress under
// contention. The blocking-hook tests park a mutator inside a
// filesystem call and then use the store from outside — anything that
// needs Store.mu would hang if the mutator held it there.

// hookFS calls onMkdir before a directory is created, onAppend before a
// file is opened for append, onSync inside a file's Sync, onSyncDir
// before a directory is synced and onRemoveAll before a tree is
// removed; any may block. A non-nil
// appendErr, called after onAppend, fails that open; a non-nil syncErr,
// called after onSync, fails that Sync.
type hookFS struct {
	fsio.FS
	onMkdir     func(path string)
	onAppend    func(path string)
	onSync      func(path string)
	onSyncDir   func(path string)
	onRemoveAll func(path string)
	appendErr   func(path string) error
	syncErr     func(path string) error
}

func (h *hookFS) MkdirAll(path string) error {
	if h.onMkdir != nil {
		h.onMkdir(path)
	}
	return h.FS.MkdirAll(path)
}

func (h *hookFS) SyncDir(path string) error {
	if h.onSyncDir != nil {
		h.onSyncDir(path)
	}
	return h.FS.SyncDir(path)
}

func (h *hookFS) RemoveAll(path string) error {
	if h.onRemoveAll != nil {
		h.onRemoveAll(path)
	}
	return h.FS.RemoveAll(path)
}

func (h *hookFS) Append(path string) (fsio.File, error) {
	if h.onAppend != nil {
		h.onAppend(path)
	}
	if h.appendErr != nil {
		if err := h.appendErr(path); err != nil {
			return nil, err
		}
	}
	f, err := h.FS.Append(path)
	if err != nil || (h.onSync == nil && h.syncErr == nil) {
		return f, err
	}
	return &hookFile{File: f, path: path, fs: h}, nil
}

type hookFile struct {
	fsio.File
	path string
	fs   *hookFS
}

func (f *hookFile) Sync() error {
	if f.fs.onSync != nil {
		f.fs.onSync(f.path)
	}
	if f.fs.syncErr != nil {
		if err := f.fs.syncErr(f.path); err != nil {
			return err
		}
	}
	return f.File.Sync()
}

// hangBound is how long a test waits for a call it expects to finish
// or a hook it expects to fire.
const hangBound = 20 * time.Second

// within fails the test if fn does not return in time — the symptom of
// a call stuck behind a lock someone holds across I/O.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(hangBound):
		t.Fatalf("%s did not finish: it is waiting on a lock held across I/O", what)
	}
}

// awaitPark waits for a parking hook to close parked, failing the test
// if it does not in time: a hook keyed on a file the operation never
// touches would otherwise hang the package.
func awaitPark(t *testing.T, parked <-chan struct{}) {
	t.Helper()
	select {
	case <-parked:
	case <-time.After(hangBound):
		t.Fatal("hook never fired")
	}
}

// isDataLog reports whether path is a generation's data log, the one
// file a write syncs.
func isDataLog(path string) bool { return filepath.Base(path) == dataLogName }

func mustSelect(t *testing.T, s *Store, name string, id int, want *array.Dense) {
	t.Helper()
	got, err := s.Select(name, id)
	if err != nil {
		t.Errorf("select %s@%d: %v", name, id, err)
	} else if !got.Dense.Equal(want) {
		t.Errorf("select %s@%d: not byte-identical", name, id)
	}
}

// isBuildDir reports whether path is a rewrite's build directory.
func isBuildDir(path string) bool {
	return strings.HasPrefix(filepath.Base(path), "chunks.build")
}

// TestRewriteCarriesConcurrentAppends parks a rewrite's build at its
// first append. While it is parked, writes to the array and to another
// one commit and selects on both complete: the build holds no write
// latch. Released, the rewrite commits from that one build, carrying
// the versions written meanwhile into the new generation with their
// ids and delta bases, and everything reads back byte-identical — live
// and after a reopen.
func TestRewriteCarriesConcurrentAppends(t *testing.T) {
	const side = 16
	rewrites := []struct {
		name string
		run  func(s *Store) error
	}{
		{"Reorganize", func(s *Store) error { return s.Reorganize("R", ReorganizeOptions{Policy: PolicyOptimal}) }},
		{"Compact", func(s *Store) error { return s.Compact("R") }},
	}
	for _, rw := range rewrites {
		for _, compacted := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/coLocate=%v", rw.name, compacted), func(t *testing.T) {
				parked := make(chan struct{})
				release := make(chan struct{})
				var armed atomic.Bool // parks the first build append after it is set
				var builds atomic.Int32
				hfs := &hookFS{FS: fsio.OS}
				hfs.onMkdir = func(path string) {
					if isBuildDir(path) {
						builds.Add(1)
					}
				}
				hfs.onAppend = func(path string) {
					if isBuildDir(filepath.Dir(path)) && armed.CompareAndSwap(true, false) {
						close(parked)
						<-release
					}
				}
				opts := smallOpts()
				opts.ChunkBytes = 1 << 10
				opts.Durability = true
				opts.FS = hfs
				s := testStore(t, opts)
				defer func() { s.Close() }()
				var unpark sync.Once
				// a failed check still lets the parked build finish, so Close returns
				defer unpark.Do(func() { close(release) })
				chain := evolvingVersions(5, side, 11)
				want := map[string][]*array.Dense{"R": chain[:3], "Other": {crashContent(1, side)}}
				for name, versions := range want {
					if err := s.CreateArray(schema2D(name, side)); err != nil {
						t.Fatal(err)
					}
					for _, c := range versions {
						if _, err := s.Insert(name, DensePayload(c)); err != nil {
							t.Fatal(err)
						}
					}
				}
				compactIf(t, s, "R", compacted)
				builds.Store(0) // count the rewrite's builds alone
				armed.Store(true)
				done := make(chan error, 1)
				go func() { done <- rw.run(s) }()
				select {
				case <-parked:
				case err := <-done:
					t.Fatalf("%s finished (%v) without building", rw.name, err)
				}
				within(t, "writes and selects beside a parked build", func() {
					for _, c := range chain[3:] {
						if _, err := s.Insert("R", DensePayload(c)); err != nil {
							t.Errorf("insert into the array being rewritten: %v", err)
						}
					}
					if _, err := s.Insert("Other", DensePayload(crashContent(2, side))); err != nil {
						t.Errorf("insert into another array: %v", err)
					}
					mustSelect(t, s, "R", 4, chain[3])
					mustSelect(t, s, "Other", 1, want["Other"][0])
				})
				want["R"] = chain
				want["Other"] = append(want["Other"], crashContent(2, side))
				// the carried versions' stored frames, as committed mid-build
				chunksOf := func(id int) map[string]map[string]chunkEntry {
					s.mu.RLock()
					defer s.mu.RUnlock()
					vm, err := s.arrays["R"].version(id)
					if err != nil {
						t.Fatal(err)
					}
					return vm.Chunks
				}
				gen := func() int {
					s.mu.RLock()
					defer s.mu.RUnlock()
					return s.arrays["R"].Gen
				}
				genBefore := gen()
				carried := map[int]map[string]map[string]chunkEntry{4: chunksOf(4), 5: chunksOf(5)}
				unpark.Do(func() { close(release) })
				within(t, "the released "+rw.name, func() {
					if err := <-done; err != nil {
						t.Errorf("%s: %v", rw.name, err)
					}
				})
				if n := builds.Load(); n != 1 {
					t.Fatalf("%d build directories were created, want 1", n)
				}
				if got := gen(); got != genBefore+1 {
					t.Fatalf("generation %d after the rewrite, want %d", got, genBefore+1)
				}
				deltas := 0
				for id, before := range carried {
					after := chunksOf(id)
					for attr, chunks := range before {
						if len(after[attr]) != len(chunks) {
							t.Fatalf("carried version %d has %d %s chunks, want %d", id, len(after[attr]), attr, len(chunks))
						}
						for key, e := range chunks {
							a := after[attr][key]
							if a.Base != e.Base || a.Codec != e.Codec || a.Length != e.Length {
								t.Fatalf("carried version %d chunk %s/%s: %+v, want base %d, codec %d, length %d", id, attr, key, a, e.Base, e.Codec, e.Length)
							}
							if e.Base > 0 {
								deltas++
							}
						}
					}
				}
				if deltas == 0 {
					t.Fatal("no carried chunk is a delta; the base check is vacuous")
				}
				for _, label := range []string{"live", "reopened"} {
					if label == "reopened" {
						s = reopen(t, s)
					}
					checkContents(t, s, want, label)
					for name := range want {
						if rep, err := s.Verify(name); err != nil || !rep.Ok() {
							t.Fatalf("%s: verify %s: %v %v", label, name, err, rep.Problems)
						}
					}
				}
			})
		}
	}
}

// TestInsertMultiHoldsNoStoreLockAcrossIO parks a cross-array batch in
// its data fsync — the first member's log, after staging, before the
// manifest append — and reads the store meanwhile.
func TestInsertMultiHoldsNoStoreLockAcrossIO(t *testing.T) {
	const side = 16
	parked := make(chan struct{})
	release := make(chan struct{})
	var armed atomic.Bool // parks the first data-log fsync after it is set
	hfs := &hookFS{FS: fsio.OS}
	hfs.onSync = func(path string) {
		if isDataLog(path) && armed.CompareAndSwap(true, false) {
			close(parked)
			<-release
		}
	}
	opts := smallOpts()
	opts.ChunkBytes = 1 << 10
	opts.Durability = true
	opts.FS = hfs
	s := testStore(t, opts)
	defer s.Close()
	base := crashContent(1, side)
	for _, name := range []string{"A", "B", "C"} {
		if err := s.CreateArray(schema2D(name, side)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Insert(name, DensePayload(base)); err != nil {
			t.Fatal(err)
		}
	}
	armed.Store(true)
	next := crashContent(2, side)
	done := make(chan error, 1)
	go func() {
		_, err := s.InsertMulti([]MultiInsert{
			{Array: "A", Payloads: []Payload{DensePayload(next)}},
			{Array: "B", Payloads: []Payload{DensePayload(next)}},
		})
		done <- err
	}()
	awaitPark(t, parked)
	within(t, "reads beside a parked InsertMulti", func() {
		mustSelect(t, s, "A", 1, base)
		mustSelect(t, s, "C", 1, base)
		if _, err := s.Insert("C", DensePayload(next)); err != nil {
			t.Errorf("insert into an array outside the batch: %v", err)
		}
		if _, err := s.Select("A", 2); err == nil {
			t.Error("uncommitted batch member is selectable")
		}
	})
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	mustSelect(t, s, "A", 2, next)
	mustSelect(t, s, "B", 2, next)
}

// parkFirstChunkSync returns a durable store whose first data-log fsync
// after arm() parks until release() (the fsync of the "parked" writer),
// with array G of side² cells holding version 1.
func parkFirstChunkSync(t *testing.T, hfs *hookFS, side int64) (s *Store, arm func(), parked <-chan struct{}, release func()) {
	t.Helper()
	park, unpark := make(chan struct{}), make(chan struct{})
	var armed atomic.Bool
	hfs.onSync = func(path string) {
		if isDataLog(path) && armed.CompareAndSwap(true, false) {
			close(park)
			<-unpark
		}
	}
	opts := smallOpts()
	opts.ChunkBytes = 1 << 10
	opts.Durability = true
	opts.FS = hfs
	s = testStore(t, opts)
	s.stopHealer() // heal explicitly, not from the background prober
	var once sync.Once
	release = func() { once.Do(func() { close(unpark) }) }
	// a failed check still lets the parked write finish, so Close returns
	t.Cleanup(func() { release(); s.Close() })
	if err := s.CreateArray(schema2D("G", side)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert("G", DensePayload(crashContent(1, side))); err != nil {
		t.Fatal(err)
	}
	return s, func() { armed.Store(true) }, park, release
}

// reachLatch gives a writer started while another holds the array's
// write latch time to get to it. Correctness does not depend on it: a
// write that stages before the latch is free is the bug the callers pin.
func reachLatch() { time.Sleep(50 * time.Millisecond) }

// insertAsync inserts c into G and reports the id and error.
func insertAsync(s *Store, c *array.Dense) (<-chan int, <-chan error) {
	ids, errs := make(chan int, 1), make(chan error, 1)
	go func() {
		id, err := s.Insert("G", DensePayload(c))
		ids <- id
		errs <- err
	}()
	return ids, errs
}

// TestConcurrentWritesChain: with writer A parked in its chunk fsync,
// writer B inserts into the same array. B waits for the write latch A
// holds, so it stages against A: its lineage parent and its delta base
// are both A, as if the two had run one after the other.
func TestConcurrentWritesChain(t *testing.T) {
	const side = 16
	s, arm, parked, release := parkFirstChunkSync(t, &hookFS{FS: fsio.OS}, side)
	a, b := crashContent(2, side), crashContent(3, side)
	arm()
	idA, errA := insertAsync(s, a)
	awaitPark(t, parked)
	idB, errB := insertAsync(s, b)
	reachLatch()
	release()
	if err := <-errA; err != nil {
		t.Fatal(err)
	}
	if err := <-errB; err != nil {
		t.Fatal(err)
	}
	gotA, gotB := <-idA, <-idB
	if gotA != 2 || gotB != 3 {
		t.Fatalf("ids A=%d B=%d, want 2 and 3", gotA, gotB)
	}
	infos, err := versionsOf(s, "G")
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 3 {
		t.Fatalf("versions %+v: want 1, A and B", infos)
	}
	if vb := infos[2]; fmt.Sprint(vb.Parents) != fmt.Sprint([]int{gotA}) || fmt.Sprint(vb.DeltaBases) != fmt.Sprint([]int{gotA}) {
		t.Fatalf("B has parents %v and delta bases %v, want [%d] for both", vb.Parents, vb.DeltaBases, gotA)
	}
	mustSelect(t, s, "G", gotA, a)
	mustSelect(t, s, "G", gotB, b)
}

// TestFailedWriteLeavesNoIDGap: with writer A parked in its chunk
// fsync, writer B inserts into the same array; A's manifest append then
// fails once. The failure is benign — nothing reached the log — so the
// array stays writable, and B, which staged only after A gave the latch
// back, takes the id A would have had.
func TestFailedWriteLeavesNoIDGap(t *testing.T) {
	const side = 16
	var failAppend atomic.Bool
	hfs := &hookFS{FS: fsio.OS}
	hfs.appendErr = func(path string) error {
		base := filepath.Base(path)
		if strings.HasPrefix(base, manifestPrefix) && strings.HasSuffix(base, ".log") && failAppend.CompareAndSwap(true, false) {
			return errInjected
		}
		return nil
	}
	s, arm, parked, release := parkFirstChunkSync(t, hfs, side)
	b := crashContent(3, side)
	arm()
	_, errA := insertAsync(s, crashContent(2, side))
	awaitPark(t, parked)
	idB, errB := insertAsync(s, b)
	reachLatch()
	failAppend.Store(true)
	release()
	if err := <-errA; !errors.Is(err, errInjected) {
		t.Fatalf("A = %v, want the injected append error", err)
	}
	if err := <-errB; err != nil {
		t.Fatalf("B after A's benign failure: %v", err)
	}
	if got := <-idB; got != 2 {
		t.Fatalf("B got id %d, want 2", got)
	}
	infos, err := versionsOf(s, "G")
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 || infos[0].ID != 1 || infos[1].ID != 2 {
		t.Fatalf("versions %+v: want 1 and 2", infos)
	}
	mustSelect(t, s, "G", 2, b)
}

// TestWriteRefusedAfterUncertainCommitFailure: writer A's data fsync
// fails while writer B waits for the write latch A holds. A's failure
// degrades the array, and B is refused with ErrDegraded instead of
// committing — at Write's gate if it arrives after the failure, at
// finalizeBatch's if it passed that gate before.
func TestWriteRefusedAfterUncertainCommitFailure(t *testing.T) {
	const side = 16
	var fail atomic.Bool
	hfs := &hookFS{FS: fsio.OS}
	hfs.syncErr = func(path string) error {
		if isDataLog(path) && fail.CompareAndSwap(true, false) {
			return fsio.ErrIO
		}
		return nil
	}
	s, arm, parked, release := parkFirstChunkSync(t, hfs, side)
	arm()
	fail.Store(true) // the parked fsync is the first data-log fsync, and fails
	_, errA := insertAsync(s, crashContent(2, side))
	awaitPark(t, parked)
	_, errB := insertAsync(s, crashContent(3, side))
	reachLatch()
	release()
	if err := <-errA; !errors.Is(err, fsio.ErrIO) {
		t.Fatalf("A = %v, want the injected EIO", err)
	}
	if err := <-errB; !errors.Is(err, ErrDegraded) {
		t.Fatalf("B = %v, want ErrDegraded", err)
	}
	if infos, err := versionsOf(s, "G"); err != nil || len(infos) != 1 {
		t.Fatalf("versions after the failed commits: %v %v, want only version 1", infos, err)
	}
}

// TestDeletesHoldNoStoreLockAcrossIO parks DeleteVersion in its
// child re-encode's data-log fsync and in its manifest append, and DeleteArray
// in its manifest append, then uses the store from outside. Selects of
// another version of the same array and of another array must complete
// meanwhile, and so must an insert into another array — while parked in
// the fsync, at once; while parked in the manifest append, as soon as
// the append it queues behind (the store's one log) finishes.
func TestDeletesHoldNoStoreLockAcrossIO(t *testing.T) {
	const side = 16
	chunkSync := isDataLog // the re-encode's log
	manifestLog := func(path string) bool {
		base := filepath.Base(path)
		return strings.HasPrefix(base, manifestPrefix) && strings.HasSuffix(base, ".log")
	}
	cases := []struct {
		name     string
		onSync   bool // park in a Sync of a matching file, else in its Append
		match    func(path string) bool
		op       func(s *Store) error
		dropped  bool // the op removes the whole array
		inserted bool // the other array's insert finishes while parked
	}{
		{"DeleteVersion/child-sync", true, chunkSync, func(s *Store) error { return s.DeleteVersion("D", 2) }, false, true},
		{"DeleteVersion/manifest-append", false, manifestLog, func(s *Store) error { return s.DeleteVersion("D", 2) }, false, false},
		{"DeleteArray/manifest-append", false, manifestLog, func(s *Store) error { return s.DeleteArray("D") }, true, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			parked := make(chan struct{})
			release := make(chan struct{})
			var armed atomic.Bool // parks the first matching call after it is set
			park := func(path string) {
				if c.match(path) && armed.CompareAndSwap(true, false) {
					close(parked)
					<-release
				}
			}
			hfs := &hookFS{FS: fsio.OS}
			if c.onSync {
				hfs.onSync = park
			} else {
				hfs.onAppend = park
			}
			opts := smallOpts()
			opts.ChunkBytes = 1 << 10
			opts.Durability = true
			opts.FS = hfs
			s := testStore(t, opts)
			defer s.Close()
			var unpark sync.Once
			// a failed check still lets the delete finish, so Close returns
			defer unpark.Do(func() { close(release) })
			// an evolving chain, so version 3 is delta'ed against 2 and
			// deleting 2 re-encodes it
			chain := evolvingVersions(3, side, 7)
			other := crashContent(1, side)
			for _, name := range []string{"D", "O"} {
				if err := s.CreateArray(schema2D(name, side)); err != nil {
					t.Fatal(err)
				}
			}
			for _, v := range chain {
				if _, err := s.Insert("D", DensePayload(v)); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := s.Insert("O", DensePayload(other)); err != nil {
				t.Fatal(err)
			}
			armed.Store(true)
			done := make(chan error, 1)
			go func() { done <- c.op(s) }()
			select {
			case <-parked:
			case err := <-done:
				t.Fatalf("op finished (%v) without reaching the hooked call", err)
			}
			next := crashContent(2, side)
			inserted := make(chan error, 1)
			go func() {
				_, err := s.Insert("O", DensePayload(next))
				inserted <- err
			}()
			within(t, "reads beside a parked delete", func() {
				mustSelect(t, s, "D", 1, chain[0])
				mustSelect(t, s, "D", 3, chain[2])
				mustSelect(t, s, "O", 1, other)
				if c.inserted {
					if err := <-inserted; err != nil {
						t.Errorf("insert into another array: %v", err)
					}
				}
			})
			unpark.Do(func() { close(release) })
			within(t, "the parked delete", func() {
				if err := <-done; err != nil {
					t.Errorf("%s: %v", c.name, err)
				}
			})
			if !c.inserted {
				within(t, "the insert queued behind the parked append", func() {
					if err := <-inserted; err != nil {
						t.Errorf("insert into another array: %v", err)
					}
				})
			}
			mustSelect(t, s, "O", 2, next)
			if c.dropped {
				if _, err := s.Select("D", 1); err == nil {
					t.Error("dropped array is still selectable")
				}
				return
			}
			if _, err := s.Select("D", 2); err == nil {
				t.Error("deleted version is still selectable")
			}
			mustSelect(t, s, "D", 3, chain[2])
			if rep, err := s.Verify("D"); err != nil || !rep.Ok() {
				t.Fatalf("verify: %v %v", err, rep.Problems)
			}
		})
	}
}

// TestCloseAndCreateWaitForDrop commits a DeleteArray while a reader
// still pins the array's generation — the array is unpublished, but its
// tree stays until the reader releases — and checks that a same-name
// CreateArray waits for the drop instead of failing, and that Close
// waits for the dropped array's reader instead of returning while its
// release still has a tree to remove.
func TestCloseAndCreateWaitForDrop(t *testing.T) {
	const side = 16
	opts := smallOpts()
	opts.ChunkBytes = 1 << 10
	s := testStore(t, opts)
	defer s.Close()
	content := crashContent(1, side)
	// parkDrop snapshots D (the parked reader), starts DeleteArray and
	// returns once the drop is committed and left to that reader
	parkDrop := func() (*readView, func(), chan error) {
		t.Helper()
		if err := s.CreateArray(schema2D("D", side)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Insert("D", DensePayload(content)); err != nil {
			t.Fatal(err)
		}
		v, release, err := s.snapshotUncached("D")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- s.DeleteArray("D") }()
		within(t, "the drop committing", func() {
			for {
				s.mu.RLock()
				dropping := s.dropping["D"]
				s.mu.RUnlock()
				if dropping {
					return
				}
				time.Sleep(time.Millisecond)
			}
		})
		return v, release, done
	}
	readThrough := func(v *readView) {
		t.Helper()
		got, err := s.readRegionView(context.Background(), v, 1, v.st.Schema.Attrs[0].Name, array.BoxOf(v.st.Schema.Shape()), newChunkCache(true), nil)
		if err != nil || !got.Dense.Equal(content) {
			t.Errorf("read through the parked reader's view: %v", err)
		}
	}
	blocked := func(what string, ch chan error) {
		t.Helper()
		select {
		case err := <-ch:
			t.Errorf("%s returned (%v) while a reader still pinned the dropped array", what, err)
		case <-time.After(50 * time.Millisecond):
		}
	}

	v, release, dropped := parkDrop()
	created := make(chan error, 1)
	go func() { created <- s.CreateArray(schema2D("D", side)) }()
	blocked("CreateArray", created)
	readThrough(v)
	release()
	within(t, "the drop and the create waiting on it", func() {
		if err := <-dropped; err != nil {
			t.Errorf("DeleteArray: %v", err)
		}
		if err := <-created; err != nil {
			t.Errorf("CreateArray of a name being dropped: %v", err)
		}
	})
	if err := s.DeleteArray("D"); err != nil {
		t.Fatal(err)
	}

	v, release, dropped = parkDrop()
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	blocked("Close", closed)
	readThrough(v)
	release()
	within(t, "the drop and the Close waiting on it", func() {
		if err := <-dropped; err != nil {
			t.Errorf("DeleteArray: %v", err)
		}
		if err := <-closed; err != nil {
			t.Errorf("Close: %v", err)
		}
	})
}

// TestCloseWaitsForInFlightWork parks a mutation in a filesystem call
// and closes the store: a Reorganize in its build's fsync, which keeps
// its generation reference until it returns, and a CreateArray in its
// directory creation. Close waits for each: the rewrite's publish is
// refused with ErrClosed and its build removed, the creation commits,
// and only then does Close return — no filesystem mutation happens
// after it. The removal of a build is slowed, so a Close that returned
// first is seen.
func TestCloseWaitsForInFlightWork(t *testing.T) {
	const side = 16
	cases := []struct {
		name string
		// parks reports whether a hooked call ("sync" or "mkdir") parks
		parks func(hook, path string) bool
		op    func(s *Store) error
		want  error
	}{
		{"Reorganize",
			func(hook, path string) bool { return hook == "sync" && isBuildDir(filepath.Dir(path)) },
			func(s *Store) error { return s.Reorganize("R", ReorganizeOptions{Policy: PolicyLinearChain}) },
			ErrClosed},
		{"CreateArray",
			func(hook, path string) bool { return hook == "mkdir" && filepath.Base(filepath.Dir(path)) == "N" },
			func(s *Store) error { return s.CreateArray(schema2D("N", side)) },
			nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var closeReturned, armed atomic.Bool
			park, unpark := make(chan struct{}), make(chan struct{})
			hook := func(kind string) func(path string) {
				return func(path string) {
					if c.parks(kind, path) && armed.CompareAndSwap(true, false) {
						close(park)
						<-unpark
					}
					if closeReturned.Load() {
						t.Errorf("filesystem %s of %s after Close returned", kind, path)
					}
				}
			}
			hfs := &hookFS{FS: fsio.OS, onMkdir: hook("mkdir"), onAppend: hook("append"), onSync: hook("sync")}
			removeAll := hook("removal")
			hfs.onRemoveAll = func(path string) {
				if isBuildDir(path) {
					time.Sleep(30 * time.Millisecond)
				}
				removeAll(path)
			}
			opts := smallOpts()
			opts.ChunkBytes = 1 << 10
			opts.Durability = true
			opts.FS = hfs
			s := testStore(t, opts)
			s.stopHealer() // heal explicitly, not from the background prober
			var once sync.Once
			release := func() { once.Do(func() { close(unpark) }) }
			t.Cleanup(func() { release(); s.Close() })
			if err := s.CreateArray(schema2D("R", side)); err != nil {
				t.Fatal(err)
			}
			for i := int64(1); i <= 3; i++ {
				if _, err := s.Insert("R", DensePayload(crashContent(i, side))); err != nil {
					t.Fatal(err)
				}
			}
			armed.Store(true)
			done := make(chan error, 1)
			go func() { done <- c.op(s) }()
			awaitPark(t, park)
			closed := make(chan error, 1)
			go func() {
				err := s.Close()
				closeReturned.Store(true)
				closed <- err
			}()
			select {
			case err := <-closed:
				t.Fatalf("Close returned (%v) while the %s was parked", err, c.name)
			case <-time.After(50 * time.Millisecond):
			}
			release()
			within(t, "the "+c.name+" and the Close", func() {
				if err := <-done; !errors.Is(err, c.want) {
					t.Errorf("%s: %v, want %v", c.name, err, c.want)
				}
				if err := <-closed; err != nil {
					t.Errorf("Close: %v", err)
				}
			})
			if dirs, _ := filepath.Glob(filepath.Join(s.Dir(), "R", "chunks.build*")); len(dirs) != 0 {
				t.Fatalf("the refused rewrite left its build: %v", dirs)
			}
		})
	}
}

// TestDurableWriteSyncCounts pins what a durable write fsyncs, on
// 4-chunk arrays: a write into an existing data log syncs that log and
// the manifest log once each and no directory — the first write after
// Compact included, since the rewrite built the new generation's log;
// the first write into a new array creates its log, which adds one sync
// of the chunks directory; a two-array Write syncs each array's log and
// the manifest log once. Stats counts the same fsyncs.
func TestDurableWriteSyncCounts(t *testing.T) {
	const side = 64 // 4 chunks of 4 KiB
	var mu sync.Mutex
	counts := map[string]int{}
	count := func(kind string) {
		mu.Lock()
		counts[kind]++
		mu.Unlock()
	}
	hfs := &hookFS{FS: fsio.OS}
	hfs.onSync = func(path string) {
		switch base := filepath.Base(path); {
		case strings.HasPrefix(base, manifestPrefix):
			count("manifest")
		case base == dataLogName:
			count("data")
		default:
			count("other")
		}
	}
	hfs.onSyncDir = func(string) { count("dir") }
	opts := smallOpts()
	opts.Durability = true
	opts.FS = hfs
	s := testStore(t, opts)
	defer s.Close()
	versions := evolvingVersions(4, side, 52)
	for _, name := range []string{"A", "B"} {
		if err := s.CreateArray(schema2D(name, side)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Insert(name, DensePayload(versions[0])); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(chunkBases(s, "A", 1)); n != 4 {
		t.Fatalf("array has %d chunks, want 4", n)
	}
	expect := func(what string, want map[string]int, write func() error) {
		t.Helper()
		mu.Lock()
		clear(counts)
		mu.Unlock()
		before := s.Stats()
		if err := write(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		after := s.Stats()
		mu.Lock()
		got := maps.Clone(counts)
		mu.Unlock()
		if !maps.Equal(got, want) {
			t.Fatalf("%s synced %v, want %v", what, got, want)
		}
		if d, m := after.DataFsyncs-before.DataFsyncs, after.ManifestFsyncs-before.ManifestFsyncs; d != int64(want["data"]) || m != int64(want["manifest"]) {
			t.Fatalf("%s: Stats counts %d data and %d manifest fsyncs, want %d and %d", what, d, m, want["data"], want["manifest"])
		}
	}
	expect("a write into an existing log", map[string]int{"data": 1, "manifest": 1}, func() error {
		_, err := s.Insert("A", DensePayload(versions[1]))
		return err
	})
	if err := s.Compact("A"); err != nil {
		t.Fatal(err)
	}
	expect("the first write after Compact", map[string]int{"data": 1, "manifest": 1}, func() error {
		_, err := s.Insert("A", DensePayload(versions[2]))
		return err
	})
	if err := s.CreateArray(schema2D("C", side)); err != nil {
		t.Fatal(err)
	}
	expect("the first write into a new array", map[string]int{"data": 1, "manifest": 1, "dir": 1}, func() error {
		_, err := s.Insert("C", DensePayload(versions[0]))
		return err
	})
	expect("a two-array write", map[string]int{"data": 2, "manifest": 1}, func() error {
		_, err := s.Write(context.Background(), []MultiInsert{
			{Array: "A", Payloads: []Payload{DensePayload(versions[3])}},
			{Array: "B", Payloads: []Payload{DensePayload(versions[1])}},
		})
		return err
	})
}

// TestRewriteSyncCounts pins what a durable rewrite of log-resident
// versions costs in data files, on 4-chunk and 64-chunk arrays: Compact
// and Reorganize each sync exactly one data file, the new generation's
// log, and open it for append about once per chunk column — not once
// per frame — and the generation they leave holds that one file.
func TestRewriteSyncCounts(t *testing.T) {
	const versions = 8
	for _, side := range []int64{64, 256} { // 4 and 64 chunks of 32² int32
		chunks := int(side / 32 * side / 32)
		// every file but the manifest's holds chunk frames
		isData := func(path string) bool { return !strings.HasPrefix(filepath.Base(path), manifestPrefix) }
		var dataSyncs, opens atomic.Int64
		hfs := &hookFS{FS: fsio.OS}
		hfs.onSync = func(path string) {
			if isData(path) {
				dataSyncs.Add(1)
			}
		}
		hfs.onAppend = func(path string) {
			if isData(path) {
				opens.Add(1)
			}
		}
		opts := smallOpts()
		opts.Durability = true
		opts.Parallelism = 2
		opts.FS = hfs
		s := testStore(t, opts)
		if err := s.CreateArray(schema2D("W", side)); err != nil {
			t.Fatal(err)
		}
		want := evolvingVersions(versions, side, 58)
		rewrites := []struct {
			name string
			run  func() error
		}{
			{"Compact", func() error { return s.Compact("W") }},
			{"Reorganize", func() error { return s.Reorganize("W", ReorganizeOptions{Policy: PolicyAlgorithm2}) }},
		}
		for _, rw := range rewrites {
			// a fresh log-resident run of versions for each rewrite
			for _, v := range want {
				if _, err := s.Insert("W", DensePayload(v)); err != nil {
					t.Fatal(err)
				}
			}
			if n := len(chunkBases(s, "W", 1)); n != chunks {
				t.Fatalf("array has %d chunks, want %d", n, chunks)
			}
			dataSyncs.Store(0)
			opens.Store(0)
			before := s.Stats().DataFsyncs
			if err := rw.run(); err != nil {
				t.Fatalf("%d chunks, %s: %v", chunks, rw.name, err)
			}
			if d, h := s.Stats().DataFsyncs-before, dataSyncs.Load(); d != 1 || h != 1 {
				t.Errorf("%d chunks, %s: synced %d data files (Stats counts %d), want 1", chunks, rw.name, h, d)
			}
			if n := opens.Load(); n > int64(2*chunks) {
				t.Errorf("%d chunks, %s: opened data files for append %d times, want at most %d (2 per column)", chunks, rw.name, n, 2*chunks)
			}
			s.mu.RLock()
			dir := s.arrays["W"].chunksDir()
			s.mu.RUnlock()
			if files, _ := os.ReadDir(dir); len(files) != 1 || files[0].Name() != dataLogName {
				t.Errorf("%d chunks, %s: the generation holds %v, want only %s", chunks, rw.name, files, dataLogName)
			}
		}
		s = reopen(t, s)
		infos, err := versionsOf(s, "W")
		if err != nil || len(infos) != 2*versions {
			t.Fatalf("%d chunks: %d versions after reopen (%v), want %d", chunks, len(infos), err, 2*versions)
		}
		for _, info := range infos {
			mustSelect(t, s, "W", info.ID, want[(info.ID-1)%versions])
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCrossArrayLogSyncsRunTogether: a durable two-array Write fsyncs
// both arrays' data logs at once. The first log sync parks until the
// second one starts — a write that synced them one after another would
// never start the second — and the write commits only after both.
func TestCrossArrayLogSyncsRunTogether(t *testing.T) {
	const side = 16
	first, second, unpark := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var armed atomic.Bool
	var syncs atomic.Int32
	hfs := &hookFS{FS: fsio.OS}
	hfs.onSync = func(path string) {
		if !isDataLog(path) || !armed.Load() {
			return
		}
		switch syncs.Add(1) {
		case 1:
			close(first)
			<-unpark
		case 2:
			close(second)
		}
	}
	opts := smallOpts()
	opts.Durability = true
	opts.FS = hfs
	s := testStore(t, opts)
	defer s.Close()
	var once sync.Once
	release := func() { once.Do(func() { close(unpark) }) }
	defer release() // before Close, which waits for the parked write
	base, next := crashContent(1, side), crashContent(2, side)
	for _, name := range []string{"A", "B"} {
		if err := s.CreateArray(schema2D(name, side)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Insert(name, DensePayload(base)); err != nil {
			t.Fatal(err)
		}
	}
	armed.Store(true)
	done := make(chan error, 1)
	go func() {
		_, err := s.Write(context.Background(), []MultiInsert{
			{Array: "A", Payloads: []Payload{DensePayload(next)}},
			{Array: "B", Payloads: []Payload{DensePayload(next)}},
		})
		done <- err
	}()
	awaitPark(t, first)
	awaitPark(t, second)
	select {
	case err := <-done:
		t.Fatalf("write returned (%v) while a log sync was parked", err)
	default:
	}
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	mustSelect(t, s, "A", 2, next)
	mustSelect(t, s, "B", 2, next)
}

// TestInsertMultiTraceStages: a traced cross-array Write reports every
// write-path stage: staging once per array, the cut and the commit's
// stages once.
func TestInsertMultiTraceStages(t *testing.T) {
	const side = 16
	opts := smallOpts()
	opts.Durability = true
	s := testStore(t, opts)
	defer s.Close()
	for _, name := range []string{"A", "B"} {
		if err := s.CreateArray(schema2D(name, side)); err != nil {
			t.Fatal(err)
		}
	}
	tr := trace.New("batch")
	_, err := s.Write(trace.NewContext(context.Background(), tr), []MultiInsert{
		{Array: "A", Payloads: []Payload{DensePayload(crashContent(1, side))}},
		{Array: "B", Payloads: []Payload{DensePayload(crashContent(2, side))}},
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int64{}
	for _, st := range tr.Finish().Stages {
		counts[st.Stage] = st.Count
	}
	want := map[string]int64{
		StageCut:         1, // both puts cut before the latches
		StageQueueWait:   1, // the latch wait
		StageStageEncode: 2, // one per array
		StageDataFsync:   1, // the write's files, synced before its record
		StageMetaCommit:  1, // ONE record
		StageInstall:     1,
	}
	if fmt.Sprint(counts) != fmt.Sprint(want) {
		t.Fatalf("traced Write reported stages %v, want %v", counts, want)
	}
}

// TestRewriteDeleteInsertRace is the -race net over the latch protocol:
// Reorganize, DeleteVersion and a steady inserter share one array. No
// commit fails, so the inserter's ids must come out contiguous — ids
// are taken from the committed NextID under the write latch — every
// Reorganize builds exactly once, and every surviving version must read
// back byte-identical.
func TestRewriteDeleteInsertRace(t *testing.T) {
	const (
		side    = 16
		seeds   = 6
		inserts = 24
	)
	var builds atomic.Int32
	hfs := &hookFS{FS: fsio.OS, onMkdir: func(path string) {
		if isBuildDir(path) {
			builds.Add(1)
		}
	}}
	opts := smallOpts()
	opts.ChunkBytes = 1 << 10
	opts.FS = hfs
	s := testStore(t, opts)
	defer s.Close()
	if err := s.CreateArray(schema2D("X", side)); err != nil {
		t.Fatal(err)
	}
	content := map[int]*array.Dense{}
	for i := 1; i <= seeds; i++ {
		content[i] = crashContent(int64(i), side)
		if _, err := s.Insert("X", DensePayload(content[i])); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var ids []int
	reorganizes := 0
	wg.Add(3)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < inserts; i++ {
			c := crashContent(int64(100+i), side)
			id, err := s.Insert("X", DensePayload(c))
			if err != nil {
				t.Errorf("insert %d: %v", i, err)
				return
			}
			ids = append(ids, id)
			content[id] = c
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Reorganize("X", ReorganizeOptions{Policy: PolicyLinearChain}); err != nil {
				t.Errorf("reorganize: %v", err)
				return
			}
			reorganizes++
		}
	}()
	deleted := map[int]bool{}
	go func() {
		defer wg.Done()
		for id := 1; id < seeds; id++ {
			if err := s.DeleteVersion("X", id); err != nil {
				t.Errorf("delete %d: %v", id, err)
				return
			}
			deleted[id] = true
		}
	}()
	wg.Wait()
	if n := int(builds.Load()); n != reorganizes {
		t.Fatalf("%d Reorganize calls created %d build directories, want one each", reorganizes, n)
	}
	sort.Ints(ids)
	for i, id := range ids {
		if id != seeds+1+i {
			t.Fatalf("inserter ids %v have a gap at %d", ids, seeds+1+i)
		}
	}
	for id, c := range content {
		if deleted[id] {
			if _, err := s.Select("X", id); err == nil {
				t.Errorf("deleted version %d still selectable", id)
			}
			continue
		}
		mustSelect(t, s, "X", id, c)
	}
	if rep, err := s.Verify("X"); err != nil || !rep.Ok() {
		t.Fatalf("verify: %v %v", err, rep.Problems)
	}
}

// TestBranchRacingCloseLeavesNoEmptyArray parks a Branch while it
// creates its new array's directory, closes the store meanwhile, and
// reopens it. Close waits for the creation's outcome, so either the
// branch committed its version or the new array is gone after reopen —
// never an empty array whose Branch reported an error.
func TestBranchRacingCloseLeavesNoEmptyArray(t *testing.T) {
	const side = 16
	park, unpark := make(chan struct{}), make(chan struct{})
	var armed atomic.Bool
	hfs := &hookFS{FS: fsio.OS}
	hfs.onMkdir = func(path string) {
		if strings.Contains(path, string(filepath.Separator)+"B"+string(filepath.Separator)) && armed.CompareAndSwap(true, false) {
			close(park)
			<-unpark
		}
	}
	opts := smallOpts()
	opts.Durability = true
	opts.FS = hfs
	s := testStore(t, opts)
	s.stopHealer() // heal explicitly, not from the background prober
	if err := s.CreateArray(schema2D("A", side)); err != nil {
		t.Fatal(err)
	}
	want := evolvingVersions(1, side, 90)[0]
	if _, err := s.Insert("A", DensePayload(want)); err != nil {
		t.Fatal(err)
	}
	armed.Store(true)
	branched := make(chan error, 1)
	go func() { branched <- s.Branch("A", 1, "B") }()
	awaitPark(t, park)
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		s.mu.RLock()
		done := s.closed
		s.mu.RUnlock()
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Close never marked the store closed")
		}
	}
	close(unpark)
	berr := <-branched
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	opts.FS = nil
	r, err := Open(s.Dir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	info, ierr := r.Info("B")
	switch {
	case berr == nil && ierr != nil:
		t.Fatalf("Branch succeeded, but B is gone after reopen: %v", ierr)
	case berr == nil:
		got, err := r.Select("B", info.Versions[0].ID)
		if err != nil || !got.Dense.Equal(want) {
			t.Fatalf("branched version after reopen: %v", err)
		}
	case ierr == nil:
		t.Fatalf("Branch failed (%v), yet B survives reopen with %d versions", berr, info.NumVersions)
	}
}
