package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"arrayvers/internal/array"
	"arrayvers/internal/fsio"
)

// Tests for the write-through of committed chunks to the decoded-chunk
// LRU: every committed write admits the dense chunks it encoded, and the
// next write reads its delta base from them instead of walking the
// chain. None of it may show in what is stored or what is read.

func writeThroughOpts(cacheBytes int64) Options {
	o := smallOpts()
	o.CacheBytes = cacheBytes
	return o
}

// headEntries returns the chunk entries of every live version of name.
func headEntries(s *Store, name string) map[int]map[string]map[string]chunkEntry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := map[int]map[string]map[string]chunkEntry{}
	for _, vm := range s.arrays[name].live() {
		out[vm.ID] = vm.Chunks
	}
	return out
}

// chunkFileBytes maps every file of name's live chunk generation to its
// bytes.
func chunkFileBytes(t *testing.T, s *Store, name string) map[string]string {
	t.Helper()
	dir := liveChunksDir(s, name)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(raw)
	}
	return out
}

// assertTwins checks that a store with a cache and its cache-off twin
// hold the same array: the same chunk entries for every live version,
// chunk files with the same bytes, and selects of every version that
// return want.
func assertTwins(t *testing.T, on, off *Store, name string, want map[int]*array.Dense) {
	t.Helper()
	if got := headEntries(on, name); len(got) != len(want) || !reflect.DeepEqual(got, headEntries(off, name)) {
		t.Fatalf("%s: chunk entries differ between the cached store and its cache-off twin", name)
	}
	if !reflect.DeepEqual(chunkFileBytes(t, on, name), chunkFileBytes(t, off, name)) {
		t.Fatalf("%s: chunk files differ between the cached store and its cache-off twin", name)
	}
	for id, w := range want {
		mustSelect(t, on, name, id, w)
		mustSelect(t, off, name, id, w)
	}
}

// TestInsertReadsNoChainWithCache: with a cache, every insert after the
// first of a 32-deep chain finds its delta base among the chunks the
// previous insert admitted and reads no chunk; without one, it walks the
// chain, and the walk grows with it.
func TestInsertReadsNoChainWithCache(t *testing.T) {
	const depth = 32
	versions := evolvingVersions(depth, 64, 81)
	for _, cacheBytes := range []int64{0, 4 << 20} {
		t.Run(fmt.Sprintf("cache=%d", cacheBytes), func(t *testing.T) {
			s := testStore(t, writeThroughOpts(cacheBytes))
			defer s.Close()
			if err := s.CreateArray(schema2D("X", 64)); err != nil {
				t.Fatal(err)
			}
			insert := func(v *array.Dense) int64 {
				t.Helper()
				before := s.Stats().ChunksRead
				if _, err := s.Insert("X", DensePayload(v)); err != nil {
					t.Fatal(err)
				}
				return s.Stats().ChunksRead - before
			}
			var second, last int64
			for i, v := range versions {
				read := insert(v)
				if i > 0 && cacheBytes > 0 && read != 0 {
					t.Fatalf("insert %d read %d chunks with its delta base cached", i+1, read)
				}
				if i == 1 {
					second = read
				}
				last = read
			}
			if cacheBytes == 0 && (second == 0 || last <= second) {
				t.Fatalf("uncached inserts read %d chunks at depth 1 and %d at depth %d: the chain was not walked", second, last, depth-1)
			}
			// it is a chain: the head deltas against its parent
			for key, e := range headEntries(s, "X")[depth]["A"] {
				if e.Base != depth-1 {
					t.Fatalf("head chunk %s has base %d, want %d", key, e.Base, depth-1)
				}
			}
			for i, v := range versions {
				mustSelect(t, s, "X", i+1, v)
			}
			// a rewrite starts a new generation and sweeps the old one's
			// cache entries: the first insert after it reads its base, the
			// second finds it again
			if err := s.Reorganize("X", ReorganizeOptions{Policy: PolicyLinearChain}); err != nil {
				t.Fatal(err)
			}
			more := evolvingVersions(2, 64, 86)
			insert(more[0])
			if read := insert(more[1]); cacheBytes > 0 && read != 0 {
				t.Fatalf("the second insert after a rewrite read %d chunks", read)
			}
			mustSelect(t, s, "X", depth+2, more[1])
		})
	}
}

// TestWriteThroughStoresIdentical: two stores fed the same single
// inserts, a three-payload write and a delta-list insert, one with a
// cache and one without, store byte-identical data logs and the same
// chunk entries, and read the same planes back.
func TestWriteThroughStoresIdentical(t *testing.T) {
	on, off := testStore(t, writeThroughOpts(4<<20)), testStore(t, writeThroughOpts(0))
	defer on.Close()
	defer off.Close()
	versions := evolvingVersions(12, 64, 82)
	want := map[int]*array.Dense{}
	for i, v := range versions {
		want[i+1] = v
	}
	edited := versions[11].Clone()
	edited.SetBitsAt([]int64{3, 5}, 77)
	want[13] = edited
	for _, s := range []*Store{on, off} {
		if err := s.CreateArray(schema2D("B", 64)); err != nil {
			t.Fatal(err)
		}
		for _, v := range versions[:6] {
			if _, err := s.Insert("B", DensePayload(v)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := writeOne(s, "B", []Payload{DensePayload(versions[6]), DensePayload(versions[7]), DensePayload(versions[8])}); err != nil {
			t.Fatal(err)
		}
		for _, v := range versions[9:] {
			if _, err := s.Insert("B", DensePayload(v)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Insert("B", DeltaListPayload(12, []CellUpdate{{Coords: []int64{3, 5}, Bits: 77}})); err != nil {
			t.Fatal(err)
		}
	}
	assertTwins(t, on, off, "B", want)
	if on.Stats().CacheEntries == 0 {
		t.Fatal("the cached store's writes admitted nothing")
	}
}

// TestFailedWriteAdmitsNothing: a write whose manifest append fails —
// benignly (the log does not open) or uncertainly (its write fails, and
// the store degrades until a heal) — admits none of its chunks. The next
// write reuses its id, and a select of that id returns the new content,
// not the failed write's.
func TestFailedWriteAdmitsNothing(t *testing.T) {
	for _, fault := range []string{"open-log", "write-log"} {
		t.Run(fault, func(t *testing.T) {
			wfs := &manifestWriteFaultFS{FS: fsio.OS}
			ffs := &failFS{FS: wfs}
			opts := writeThroughOpts(4 << 20)
			opts.Durability = true
			opts.FS = ffs
			s := testStore(t, opts)
			defer s.Close()
			s.stopHealer() // heal explicitly, not from the background prober
			if err := s.CreateArray(schema2D("F", 64)); err != nil {
				t.Fatal(err)
			}
			versions := evolvingVersions(3, 64, 83)
			if _, err := s.Insert("F", DensePayload(versions[0])); err != nil {
				t.Fatal(err)
			}
			// the failed write's second member deltas against its first, so
			// staging reads the staged version 2 back
			failed := []Payload{DensePayload(versions[1].Clone()), DensePayload(versions[2].Clone())}
			for _, p := range failed {
				d := p.Planes[0].Dense
				for i := int64(0); i < d.NumCells(); i++ {
					d.SetBits(i, d.Bits(i)+1000)
				}
			}
			entries := s.Stats().CacheEntries
			want := errInjected
			if fault == "open-log" {
				ffs.arm(func(op, path string) bool {
					return op == "append" && strings.HasPrefix(filepath.Base(path), manifestPrefix)
				})
			} else {
				wfs.arm(true)
				want = fsio.ErrIO
			}
			if _, err := writeOne(s, "F", failed); !errors.Is(err, want) {
				t.Fatalf("write under a manifest fault returned %v, want the injected failure", err)
			}
			wfs.arm(false)
			if got := s.Stats().CacheEntries; got != entries {
				t.Fatalf("the failed write changed the cache from %d to %d entries", entries, got)
			}
			if fault == "write-log" {
				if _, err := s.Heal(); err != nil {
					t.Fatal(err)
				}
			}
			for i, v := range versions[1:] {
				id, err := s.Insert("F", DensePayload(v))
				if err != nil {
					t.Fatal(err)
				}
				if id != i+2 {
					t.Fatalf("insert after the failed write got id %d, want %d", id, i+2)
				}
			}
			for i, v := range versions {
				mustSelect(t, s, "F", i+1, v)
			}
		})
	}
}

// TestWriteThroughRespectsEpochs: after a Reorganize, a Compact, a
// DeleteVersion of the head, and a DeleteArray followed by a same-name
// CreateArray (whose version ids restart with different content), the
// next insert and every select of a cached store match its cache-off
// twin.
func TestWriteThroughRespectsEpochs(t *testing.T) {
	on, off := testStore(t, writeThroughOpts(4<<20)), testStore(t, writeThroughOpts(0))
	defer on.Close()
	defer off.Close()
	versions := append(evolvingVersions(10, 64, 84), evolvingVersions(2, 64, 85)...)
	want := map[int]*array.Dense{}
	both := func(what string, op func(s *Store) error) {
		t.Helper()
		for _, s := range []*Store{on, off} {
			if err := op(s); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		}
	}
	head := 0
	insert := func() {
		t.Helper()
		v := versions[0]
		versions = versions[1:]
		var ids [2]int
		for i, s := range []*Store{on, off} {
			id, err := s.Insert("E", DensePayload(v))
			if err != nil {
				t.Fatal(err)
			}
			ids[i] = id
		}
		if ids[0] != ids[1] {
			t.Fatalf("the twins gave one insert ids %d and %d", ids[0], ids[1])
		}
		head, want[ids[0]] = ids[0], v
	}
	both("create", func(s *Store) error { return s.CreateArray(schema2D("E", 64)) })
	for i := 0; i < 4; i++ {
		insert()
	}
	steps := []struct {
		name string
		op   func(s *Store) error
		then func()
	}{
		{"reorganize", func(s *Store) error {
			return s.Reorganize("E", ReorganizeOptions{Policy: PolicyHeadBiased})
		}, nil},
		{"compact", func(s *Store) error { return s.Compact("E") }, nil},
		{"delete the head", func(s *Store) error { return s.DeleteVersion("E", head) }, func() { delete(want, head) }},
		{"drop and recreate", func(s *Store) error {
			if err := s.DeleteArray("E"); err != nil {
				return err
			}
			return s.CreateArray(schema2D("E", 64))
		}, func() { want = map[int]*array.Dense{} }},
	}
	for _, step := range steps {
		both(step.name, step.op)
		if step.then != nil {
			step.then()
		}
		insert()
		insert()
		assertTwins(t, on, off, "E", want)
	}
}
