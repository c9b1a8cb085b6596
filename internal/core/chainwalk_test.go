package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"arrayvers/internal/array"
	"arrayvers/internal/trace"
)

// Tests of the one-buffer chain walk (resolveDenseChunk): what it
// decodes, counted from a traced context rather than timed; that a
// cyclic chain is an error, not a stack overflow; and that rewriting
// its private buffer never reaches a cached or memoized plane.

// chunkBases maps each chunk of version id's attribute "A" (or the
// sparse container) to its delta base, -1 for a materialized chunk.
func chunkBases(s *Store, name string, id int) map[string]int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := map[string]int{}
	for _, vm := range s.arrays[name].Versions {
		if vm.ID == id {
			for _, chunks := range vm.Chunks {
				for k, e := range chunks {
					out[k] = e.Base
				}
			}
		}
	}
	return out
}

// decodedBy runs fn under a fresh trace and returns how many chunk
// payloads it decoded.
func decodedBy(t *testing.T, fn func(ctx context.Context) error) int64 {
	t.Helper()
	tr := trace.New("walk")
	if err := fn(trace.NewContext(context.Background(), tr)); err != nil {
		t.Fatal(err)
	}
	return tr.Finish().Attrs["chunks_decoded"]
}

// walkStore inserts versions into a fresh 4-chunk array "W", applies
// prepare, and reopens the store so the decoded-chunk cache starts cold.
func walkStore(t *testing.T, versions []*array.Dense, prepare func(*Store)) *Store {
	t.Helper()
	dir := t.TempDir()
	opts := smallOpts()
	opts.CacheBytes = 16 << 20
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateArray(schema2D("W", 64)); err != nil {
		t.Fatal(err)
	}
	for _, v := range versions {
		if _, err := s.Insert("W", DensePayload(v)); err != nil {
			t.Fatal(err)
		}
	}
	if prepare != nil {
		prepare(s)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(dir, opts); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	if n := len(chunkBases(s, "W", 1)); n != 4 {
		t.Fatalf("array has %d chunks, want 4", n)
	}
	return s
}

func TestChainWalkDecodeCounts(t *testing.T) {
	versions := evolvingVersions(8, 64, 71)
	s := walkStore(t, versions, nil)
	selectOf := func(id int) func(context.Context) error {
		return func(ctx context.Context) error {
			pl, err := s.Read(ctx, ReadQuery{Array: "W", IDs: []int{id}})
			if err == nil && !pl[0].Dense.Equal(versions[id-1]) {
				err = fmt.Errorf("version %d mismatch", id)
			}
			return err
		}
	}
	// the deepest version with a child delta'ed against it chunk for chunk
	target, child, want := 0, 0, 0
	for id := 1; id <= len(versions); id++ {
		for c := id + 1; c <= len(versions); c++ {
			all := true
			for _, b := range chunkBases(s, "W", c) {
				all = all && b == id
			}
			if !all {
				continue
			}
			cost := 0 // payloads from the root up, per chunk (Verify's walk)
			for k := range chunkBases(s, "W", id) {
				s.mu.RLock()
				d, _ := chainDepth(s.arrays["W"], "A", k, id, len(versions))
				s.mu.RUnlock()
				cost += d
			}
			if cost > want {
				target, child, want = id, c, cost
			}
			break
		}
	}
	if want < 3*4 {
		t.Fatalf("insert-order layout too shallow to test (deepest target %d costs %d)", target, want)
	}
	if got := decodedBy(t, selectOf(target)); got != int64(want) {
		t.Fatalf("cold select of version %d decoded %d payloads, want depth+1 per chunk = %d", target, got, want)
	}
	if got := decodedBy(t, selectOf(target)); got != 0 {
		t.Fatalf("repeated select of version %d decoded %d payloads, want 0", target, got)
	}
	if got := decodedBy(t, selectOf(child)); got != 4 {
		t.Fatalf("select of child %d decoded %d payloads, want 1 per chunk = 4", child, got)
	}
}

func TestSelectMultiDecodesEachPayloadOnce(t *testing.T) {
	versions := evolvingVersions(8, 64, 72)
	ids := make([]int, len(versions))
	for i := range ids {
		ids[i] = i + 1
	}
	want, err := array.Stack(versions)
	if err != nil {
		t.Fatal(err)
	}
	layouts := map[string]func(*Store){
		"insert-order": nil,
		"algorithm2": func(s *Store) {
			if err := s.Reorganize("W", ReorganizeOptions{Policy: PolicyAlgorithm2}); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, prepare := range layouts {
		s := walkStore(t, versions, prepare)
		got := decodedBy(t, func(ctx context.Context) error {
			stacked, err := StackPlanes(s.Read(ctx, ReadQuery{Array: "W", IDs: ids}))
			if err == nil && !stacked.Equal(want) {
				err = fmt.Errorf("%s: stacked versions mismatch", name)
			}
			return err
		})
		if got != int64(len(ids)*4) {
			t.Fatalf("%s: SelectMulti over all versions decoded %d payloads, want each of %d once", name, got, len(ids)*4)
		}
	}
}

// TestDeltaCycleReturnsError sabotages in-memory metadata into a 2-cycle
// (version 2's chunks delta'ed on 3, 3's on 2), which CRC-valid manifest
// bytes can also describe: every select form must fail with
// ErrDeltaCycle instead of recursing until the stack overflows.
func TestDeltaCycleReturnsError(t *testing.T) {
	s := testStore(t, smallOpts())
	defer s.Close()
	if err := s.CreateArray(schema2D("CY", 32)); err != nil {
		t.Fatal(err)
	}
	for _, v := range evolvingVersions(3, 32, 39) {
		if _, err := s.Insert("CY", DensePayload(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.CreateArray(sparseSchema("CS", 5000)); err != nil {
		t.Fatal(err)
	}
	for _, sp := range sparseSnapshots(3, 5000, 43) {
		if _, err := s.Insert("CS", SparsePayload(sp)); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"CY", "CS"} {
		s.mu.Lock()
		st := s.arrays[name]
		for _, vm := range st.Versions {
			if base := map[int]int{2: 3, 3: 2}[vm.ID]; base != 0 {
				for _, chunks := range vm.Chunks {
					for k, e := range chunks {
						e.Base = base
						chunks[k] = e
					}
				}
			}
		}
		st.mutateLocked()
		s.mu.Unlock()
	}
	check := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrDeltaCycle) {
			t.Errorf("%s over a delta cycle: err = %v, want ErrDeltaCycle", what, err)
		}
	}
	_, err := s.Select("CY", 2)
	check("Select", err)
	_, err = s.SelectRegion("CY", 3, array.NewBox([]int64{0, 0}, []int64{9, 9}))
	check("SelectRegion", err)
	_, err = s.SelectMulti("CY", []int{1, 2, 3})
	check("SelectMulti", err)
	_, err = s.SelectSparseMulti("CS", []int{1, 2, 3}, array.Box{})
	check("SelectSparseMulti", err)
	if pl, err := s.Select("CY", 1); err != nil || pl.Dense == nil {
		t.Fatalf("the intact root stopped reading: %v", err)
	}
}

// TestChainWalkNeverMutatesSharedPlanes runs readers that select random
// depths and scribble over every plane they get back, beside Reorganize
// and Compact. Every read must match its generator: a walk that applied
// a delta to a cached or memoized plane would corrupt a later read.
func TestChainWalkNeverMutatesSharedPlanes(t *testing.T) {
	opts := concurrencyOpts()
	opts.CacheBytes = 128 << 10 // ~8 versions' worth: hits and evictions both
	s := testStore(t, opts)
	defer s.Close()
	if err := s.CreateArray(schema2D("AL", 64)); err != nil {
		t.Fatal(err)
	}
	versions := evolvingVersions(12, 64, 73)
	for _, v := range versions {
		if _, err := s.Insert("AL", DensePayload(v)); err != nil {
			t.Fatal(err)
		}
	}
	box := array.NewBox([]int64{8, 20}, []int64{50, 63})
	var wg sync.WaitGroup
	fail := make(chan error, 8)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				id := 1 + rng.Intn(len(versions))
				var got, want *array.Dense
				var err error
				switch i % 3 {
				case 0:
					var pl Plane
					pl, err = s.Select("AL", id)
					got, want = pl.Dense, versions[id-1]
				case 1:
					var pl Plane
					pl, err = s.SelectRegion("AL", id, box)
					got = pl.Dense
					if err == nil {
						want, err = versions[id-1].Slice(box)
					}
				default:
					ids := rng.Perm(len(versions))[:4] // any order: memo hits on intermediates
					slabs := make([]*array.Dense, len(ids))
					for j := range ids {
						ids[j]++
						slabs[j] = versions[ids[j]-1]
					}
					if got, err = s.SelectMulti("AL", ids); err == nil {
						want, err = array.Stack(slabs)
					}
				}
				if err == nil && !got.Equal(want) {
					err = fmt.Errorf("read %d (version %d) does not match its generator", i, id)
				}
				if err != nil {
					fail <- err
					return
				}
				rng.Read(got.Bytes())
			}
		}(rand.New(rand.NewSource(int64(g))))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, p := range []LayoutPolicy{PolicyAlgorithm2, PolicyLinearChain} {
			if err := s.Reorganize("AL", ReorganizeOptions{Policy: p}); err != nil {
				fail <- err
				return
			}
			if err := s.Compact("AL"); err != nil {
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

	// a cold root target goes into the cache; every walk that then starts
	// from it must copy, never write through it
	if err := s.Compact("AL"); err != nil { // fresh generation, cold cache
		t.Fatal(err)
	}
	root := 0
	for id := len(versions); id >= 1 && root == 0; id-- {
		root = id
		for _, b := range chunkBases(s, "AL", id) {
			if b >= 0 {
				root = 0
			}
		}
	}
	if root == 0 {
		t.Fatal("linear-chain layout has no materialized version")
	}
	if _, err := s.Select("AL", root); err != nil {
		t.Fatal(err)
	}
	for i := range versions {
		for _, id := range []int{i + 1, root} {
			pl, err := s.Select("AL", id)
			if err != nil {
				t.Fatal(err)
			}
			if !pl.Dense.Equal(versions[id-1]) {
				t.Fatalf("version %d corrupted after the walks", id)
			}
		}
	}
}
