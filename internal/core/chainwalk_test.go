package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"arrayvers/internal/array"
	"arrayvers/internal/delta"
	"arrayvers/internal/layout"
	"arrayvers/internal/trace"
)

// Tests of the one-buffer chain walk (resolveDenseChunk): what it
// decodes, counted from a traced context rather than timed; that a
// cyclic chain is an error, not a stack overflow; that rewriting its
// private buffer never reaches a cached or memoized plane; and what it
// reads — preads per chunk, per-frame checksums inside a run, and
// extents bounded by the file before anything is allocated.

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
// ErrDeltaCycle instead of recursing until the stack overflows. A
// rewrite's column walk must fail the same way — Reorganize and Tune
// over the cycle, and over a column one of whose chunks deltas against a
// version that is not live — publishing no generation and leaving every
// intact version readable.
func TestDeltaCycleReturnsError(t *testing.T) {
	s := testStore(t, smallOpts())
	defer s.Close()
	dense := evolvingVersions(3, 32, 39)
	for _, name := range []string{"CY", "NL"} {
		if err := s.CreateArray(schema2D(name, 32)); err != nil {
			t.Fatal(err)
		}
		for _, v := range dense {
			if _, err := s.Insert(name, DensePayload(v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.CreateArray(sparseSchema("CS", 5000)); err != nil {
		t.Fatal(err)
	}
	sparse := sparseSnapshots(3, 5000, 43)
	for _, sp := range sparse {
		if _, err := s.Insert("CS", SparsePayload(sp)); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	for _, name := range []string{"CY", "CS"} {
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
	}
	// one chunk of NL's newest version deltas against a version that was
	// never written
	nl := s.arrays["NL"]
	chunks := nl.Versions[2].Chunks["A"]
	keys := make([]string, 0, len(chunks))
	for k := range chunks {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	e := chunks[keys[0]]
	e.Base = 99
	chunks[keys[0]] = e
	nl.mutateLocked()
	s.mu.Unlock()
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
	for _, name := range []string{"CY", "CS", "NL"} {
		s.mu.RLock()
		st := s.arrays[name]
		gen := st.current
		s.mu.RUnlock()
		check("Reorganize of "+name, s.Reorganize(name, ReorganizeOptions{Policy: PolicyAlgorithm2}))
		// a plan that never samples the hostile column: the build's walk
		// must refuse it too
		check("a linear Reorganize of "+name, s.Reorganize(name, ReorganizeOptions{Policy: PolicyLinearChain, MatrixSample: 1}))
		_, err := s.Tune(name, []layout.Query{layout.Snapshot(1, 1)})
		check("Tune of "+name, err)
		s.mu.RLock()
		published := st.current != gen
		s.mu.RUnlock()
		if published {
			t.Errorf("a failed rewrite of %s published a generation", name)
		}
		if _, err := os.Stat(filepath.Join(st.dir, buildDirName)); !os.IsNotExist(err) {
			t.Errorf("a failed rewrite of %s left its build behind: %v", name, err)
		}
	}
	for name, ids := range map[string][]int{"CY": {1}, "CS": {1}, "NL": {1, 2}} {
		for _, id := range ids {
			pl, err := s.Select(name, id)
			switch {
			case err != nil:
				t.Fatalf("intact version %d of %s stopped reading: %v", id, name, err)
			case name == "CS" && !pl.Sparse.Equal(sparse[id-1]),
				name != "CS" && !pl.Dense.Equal(dense[id-1]):
				t.Fatalf("intact version %d of %s reads different content", id, name)
			}
		}
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

// chainStore inserts depth versions into a fresh 4-chunk array "K" in
// insert order — their frames as written, or, compacted, rebuilt one
// chunk column at a time — and reopens the store with the
// decoded-chunk cache off, so every select walks from disk.
func chainStore(t *testing.T, depth int, compacted bool) (*Store, []*array.Dense) {
	t.Helper()
	dir := t.TempDir()
	opts := smallOpts()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateArray(schema2D("K", 64)); err != nil {
		t.Fatal(err)
	}
	versions := evolvingVersions(depth, 64, 76)
	for _, v := range versions {
		if _, err := s.Insert("K", DensePayload(v)); err != nil {
			t.Fatal(err)
		}
	}
	compactIf(t, s, "K", compacted)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(dir, opts); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s, versions
}

// TestColdChainWalkPreads pins the walk's read shape: a cold select of
// the newest of 32 insert-order versions reads every frame of every
// chain, with at most 2 preads per chunk once Compact co-located the
// chain (the root, then one run of deltas) and one pread per frame
// while it is log-resident, each frame between other chunks' frames.
func TestColdChainWalkPreads(t *testing.T) {
	const depth = 32
	for _, compacted := range []bool{true, false} {
		s, versions := chainStore(t, depth, compacted)
		frames := 0
		for k := range chunkBases(s, "K", depth) {
			s.mu.RLock()
			d, _ := chainDepth(s.arrays["K"], "A", k, depth, depth)
			s.mu.RUnlock()
			frames += d
		}
		if frames < 4*depth/2 {
			t.Fatalf("compacted=%v: chains too shallow to test (%d frames)", compacted, frames)
		}
		before := s.Stats()
		got, err := s.Select("K", depth)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Dense.Equal(versions[depth-1]) {
			t.Fatalf("compacted=%v: version %d mismatch", compacted, depth)
		}
		after := s.Stats()
		reads, preads := after.ChunksRead-before.ChunksRead, after.ChunkPreads-before.ChunkPreads
		if reads != int64(frames) {
			t.Fatalf("compacted=%v: read %d frames, want every chain's %d", compacted, reads, frames)
		}
		if compacted && preads > 2*4 {
			t.Fatalf("co-located walk issued %d preads for 4 chunks, want at most 2 each", preads)
		}
		if !compacted && preads != reads {
			t.Fatalf("log-resident walk issued %d preads for %d frames, want one each", preads, reads)
		}
	}
}

// TestColdWalkReadsBoundedSegments pins the cap on what one walk holds:
// a cold select of the tip of a 16-deep co-located chain of ~160 KB
// Hybrid deltas (over 2 MB of frames) must read its deltas in segments of
// at most walkReadBytes — more preads than one run, fewer than one per
// frame — and still reconstruct the tip exactly.
func TestColdWalkReadsBoundedSegments(t *testing.T) {
	const depth, side = 16, 256
	s := testStore(t, DefaultOptions()) // cache off: every select walks from disk
	defer s.Close()
	if err := s.CreateArray(schema2D("D", side)); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(78))
	cur := array.MustDense(array.Int32, []int64{side, side})
	var tip *array.Dense
	for range depth {
		for i := range cur.NumCells() {
			cur.SetBits(i, cur.Bits(i)+int64(rng.Intn(1<<20))-1<<19)
		}
		if _, err := s.Insert("D", DensePayload(cur)); err != nil {
			t.Fatal(err)
		}
		tip = cur.Clone()
	}
	var held, frames int64 // the tip chunk's delta frames
	s.mu.RLock()
	st := s.arrays["D"]
	if len(chunkBases(s, "D", depth)) != 1 {
		s.mu.RUnlock()
		t.Fatal("want one chunk per version")
	}
	for id := depth; ; frames++ {
		vm, err := st.version(id)
		if err != nil {
			s.mu.RUnlock()
			t.Fatal(err)
		}
		var e chunkEntry
		for _, e = range vm.Chunks["A"] {
		}
		if e.Base < 0 {
			break
		}
		held += frameLen(e.Length)
		id = e.Base
	}
	s.mu.RUnlock()
	if held <= 2*walkReadBytes {
		t.Fatalf("chain holds %d bytes of deltas, too few to test the cap", held)
	}
	before := s.Stats()
	got, err := s.Select("D", depth)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Dense.Equal(tip) {
		t.Fatal("the segmented walk did not reconstruct the tip")
	}
	after := s.Stats()
	if reads := after.ChunksRead - before.ChunksRead; reads != frames+1 {
		t.Fatalf("read %d frames, want the chain's %d", reads, frames+1)
	}
	segs := after.ChunkPreads - before.ChunkPreads - 1 // less the root
	if minSegs := (held + walkReadBytes - 1) / walkReadBytes; segs < minSegs || segs >= frames {
		t.Fatalf("%d delta preads for %d frames of %d bytes, want %d..%d", segs, frames, held, minSegs, frames-1)
	}
}

// TestCorruptMiddleFrameNamesItsVersion flips one payload byte of a
// delta frame in the middle of a co-located chain, which the run read
// fetches together with its neighbours: the select of the chain's tip
// must fail on that frame's checksum and name that frame's version.
func TestCorruptMiddleFrameNamesItsVersion(t *testing.T) {
	const depth, mid = 32, 16
	s, _ := chainStore(t, depth, true)
	s.mu.RLock()
	st := s.arrays["K"]
	vm, err := st.version(mid)
	var e chunkEntry
	for _, ce := range vm.Chunks["A"] {
		e = ce
		break
	}
	path := filepath.Join(st.chunksDir(), e.File)
	s.mu.RUnlock()
	if err != nil || e.Base < 0 {
		t.Fatalf("version %d has no delta frame to corrupt (err %v)", mid, err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	at := e.Offset + frameHeaderLen + e.Length/2
	if _, err := f.ReadAt(b, at); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b, at); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = s.Select("K", depth)
	if err == nil {
		t.Fatal("select over a corrupt middle frame succeeded")
	}
	msg := err.Error()
	if !strings.Contains(msg, "checksum") || !strings.Contains(msg, fmt.Sprintf("version %d:", mid)) || strings.Contains(msg, fmt.Sprintf("version %d", depth)) {
		t.Fatalf("error %q does not name the corrupt frame's version %d alone", msg, mid)
	}
}

// TestHostileFrameLengthBounded gives one chunk entry, in memory, the
// largest length a frame header can carry: a select through it must
// fail with ErrExtentPastEOF before anything is sized by that length.
// Both a delta frame (a run read) and a root frame (an exact read) are
// tried.
func TestHostileFrameLengthBounded(t *testing.T) {
	for _, victim := range []int{1, 2} { // the root, then the first delta
		s, _ := chainStore(t, 3, true)
		s.mu.Lock()
		st := s.arrays["K"]
		for _, vm := range st.Versions {
			if vm.ID != victim {
				continue
			}
			for k, e := range vm.Chunks["A"] {
				if (victim == 1) != (e.Base < 0) {
					t.Fatalf("version %d chunk %s has base %d", victim, k, e.Base)
				}
				e.Length = 1<<32 - 1
				vm.Chunks["A"][k] = e
				break
			}
		}
		st.mutateLocked()
		s.mu.Unlock()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := s.Select("K", 3)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrExtentPastEOF) {
			t.Fatalf("victim %d: select err = %v, want ErrExtentPastEOF", victim, err)
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("of version %d", victim)) {
			t.Fatalf("victim %d: error %q does not name the version", victim, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 16<<20 {
			t.Fatalf("victim %d: the failed select allocated %d bytes", victim, grew)
		}
	}
}

// seedChain builds a real co-located chain file — a 16×16 int32 root and
// seven hybrid deltas, each framed — and its frame list as
// (offset, length) uvarint pairs, root first.
func seedChain() (file, layout []byte, tip *array.Dense) {
	versions := evolvingVersions(8, 16, 77)
	var payloads [][]byte
	payloads = append(payloads, versions[0].Bytes())
	for v := 1; v < len(versions); v++ {
		blob, err := delta.Encode(delta.Hybrid, versions[v], versions[v-1])
		if err != nil {
			panic(err)
		}
		payloads = append(payloads, blob)
	}
	for _, p := range payloads {
		layout = binary.AppendUvarint(layout, uint64(len(file)))
		layout = binary.AppendUvarint(layout, uint64(len(p)))
		file = appendFrame(file, p)
	}
	return file, layout, versions[len(versions)-1]
}

// FuzzChainRun reads arbitrary bytes as a chain file the way a cold walk
// does: the layout's first (offset, length) pair is the root, read on
// its own; the rest are delta frames, fetched in runs by readFrames;
// each is parsed, unsealed and applied in place to the root's plane.
// The contract for hostile files and layouts: a typed error — an extent
// past the file's end is ErrExtentPastEOF — never a panic, and nothing
// allocated beyond the file's size for the root and the runs.
func FuzzChainRun(f *testing.F) {
	seedFile, seedLayout, tip := seedChain()
	file, layout := seedFile, seedLayout
	f.Add(file, layout)
	flipped := append([]byte(nil), file...)
	flipped[len(flipped)-7] ^= 1 // inside the last delta's payload
	f.Add(flipped, layout)
	f.Add(file[:len(file)-5], layout) // torn tail
	hostile := binary.AppendUvarint(append([]byte(nil), layout...), uint64(len(file)))
	f.Add(file, binary.AppendUvarint(hostile, 1<<32-1))            // a length only a frame header could hold
	f.Add(file, append(append([]byte(nil), layout...), layout...)) // every frame twice
	// a link with a bad magic in one run, then a link past EOF in a later
	// run: the extent error wins, because every run is checked first
	var pairs [4]uint64 // root offset and length, first link's
	for i, pos := 0, 0; i < len(pairs); i++ {
		var k int
		pairs[i], k = binary.Uvarint(layout[pos:])
		pos += k
	}
	rootLen, linkLen := pairs[1], pairs[3]
	split := binary.AppendUvarint(binary.AppendUvarint(nil, 0), rootLen)
	split = binary.AppendUvarint(binary.AppendUvarint(split, 5), linkLen)
	f.Add(file, binary.AppendUvarint(binary.AppendUvarint(split, 100000), 8))
	f.Fuzz(func(t *testing.T, file, layout []byte) {
		if len(file) > 1<<16 || len(layout) > 256 {
			return
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "A-c.chain"), file, 0o644); err != nil {
			t.Fatal(err)
		}
		var frames []frameRef
		for pos := 0; pos < len(layout) && len(frames) < 33; {
			off, k := binary.Uvarint(layout[pos:])
			if k <= 0 {
				break
			}
			n, k2 := binary.Uvarint(layout[pos+k:])
			if k2 <= 0 {
				break
			}
			pos += k + k2
			frames = append(frames, frameRef{len(frames) + 1, chunkEntry{File: "A-c.chain", Offset: int64(off & (1<<63 - 1)), Length: int64(n & (1<<63 - 1)), Base: len(frames)}})
		}
		if len(frames) == 0 {
			return
		}
		frames[0].e.Base = -1
		s := &Store{} // the read path needs only the counters
		past := false
		for _, fr := range frames {
			past = past || fr.e.Offset+frameLen(fr.e.Length) > int64(len(file)) || fr.e.Offset+frameLen(fr.e.Length) < 0
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		root, rerr := s.readFrames(dir, frames[:1])
		links, lerr := s.readFrames(dir, frames[1:])
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 2*uint64(len(file))+64<<10 {
			t.Fatalf("reads of a %d-byte file allocated %d bytes", len(file), grew)
		}
		err := errors.Join(rerr, lerr)
		if past != errors.Is(err, ErrExtentPastEOF) {
			t.Fatalf("extent past EOF = %v, but err = %v", past, err)
		}
		if err != nil {
			return
		}
		box := array.NewBox([]int64{0, 0}, []int64{16, 16})
		raw, err := decodePayload(frames[0].e, root[0], box, array.Int32, nil)
		if err != nil {
			return
		}
		buf, err := array.DenseFromBytes(array.Int32, box.Shape(), raw)
		if err != nil {
			return
		}
		for i, l := range links {
			if raw, err = decodePayload(frames[i+1].e, l, box, array.Int32, nil); err != nil {
				return
			}
			if buf, err = delta.ApplyInPlace(raw, buf); err != nil {
				return
			}
		}
		if bytes.Equal(file, seedFile) && bytes.Equal(layout, seedLayout) && !buf.Equal(tip) {
			t.Fatal("the intact seed chain does not reconstruct its tip")
		}
	})
}
