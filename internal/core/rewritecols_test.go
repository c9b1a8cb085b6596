package core

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"arrayvers/internal/array"
	"arrayvers/internal/compress"
	"arrayvers/internal/layout"
)

// entryDump digests what a rewrite of array name wrote, byte for byte:
// the count and CRC32 of its live versions' chunk entries — base,
// codec, offset and length, in id and chunk-key order — and the size
// and CRC32 of the generation's data log.
func entryDump(t *testing.T, s *Store, name string) string {
	t.Helper()
	s.mu.RLock()
	st := s.arrays[name]
	vms := slices.Clone(st.Versions)
	dir := st.current.dir
	s.mu.RUnlock()
	var b strings.Builder
	entries := 0
	for _, vm := range vms {
		if vm.Deleted {
			continue
		}
		for _, attr := range st.Schema.Attrs {
			keys := make([]string, 0, len(vm.Chunks[attr.Name]))
			for k := range vm.Chunks[attr.Name] {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			for _, k := range keys {
				e := vm.Chunks[attr.Name][k]
				fmt.Fprintf(&b, "v%d %s/%s base=%d codec=%d %s@%d+%d\n", vm.ID, attr.Name, k, e.Base, e.Codec, e.File, e.Offset, e.Length)
				entries++
			}
		}
	}
	log, err := os.ReadFile(filepath.Join(dir, dataLogName))
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("entries %d crc32 %08x\n%s %d bytes crc32 %08x\n",
		entries, crc32.ChecksumIEEE([]byte(b.String())), dataLogName, len(log), crc32.ChecksumIEEE(log))
}

// baseChanges counts the chunks whose stored base differs between two
// snapshots of the same versions (arrayEntries).
func baseChanges(before, after map[string]chunkEntry) int {
	n := 0
	for k, e := range before {
		if after[k].Base != e.Base {
			n++
		}
	}
	return n
}

// arrayEntries maps every live chunk of array name, by version,
// attribute and key, to its stored entry.
func arrayEntries(s *Store, name string) map[string]chunkEntry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := map[string]chunkEntry{}
	for _, vm := range s.arrays[name].Versions {
		if vm.Deleted {
			continue
		}
		for attr, chunks := range vm.Chunks {
			for k, e := range chunks {
				out[fmt.Sprintf("%d/%s/%s", vm.ID, attr, k)] = e
			}
		}
	}
	return out
}

// TestRewriteCarriesKeptBases pins what a rewrite re-encodes: a
// Reorganize{Algorithm2} of an insert-order drift chain keeps every
// chunk's base, so it encodes no chunk and copies every frame — and
// the entries and data log it leaves are byte for byte what the
// re-encoding build wrote (testdata/rewrite_carry.golden, recorded from
// it). A rewrite that re-parents versions encodes exactly the chunks
// whose base changes, reads back byte-identical and verifies clean;
// Compact encodes none. The rule is the same under a compressing codec,
// whose seal falls back to none where compression does not pay: a kept
// base carries the frame whatever its codec, and a store reopened with
// another codec keeps every carried frame's and seals only new and
// re-encoded frames with the new one.
func TestRewriteCarriesKeptBases(t *testing.T) {
	const n = 8
	var dump strings.Builder
	for _, arm := range []struct {
		codec compress.Codec
		sides []int64 // 64 and 256: 4 and 64 chunks of 4 KiB
	}{
		{compress.None, []int64{64, 256}},
		// one size: LZ's decoding makes every step's reads and Verify
		// about ten times slower under -race
		{compress.LZ, []int64{64}},
	} {
		codec := arm.codec
		for _, side := range arm.sides {
			name := fmt.Sprintf("C%d", side)
			opts := smallOpts()
			opts.Codec = codec
			s := testStore(t, opts)
			if err := s.CreateArray(schema2D(name, side)); err != nil {
				t.Fatal(err)
			}
			versions := driftSeries(n, side, 61)
			for _, v := range versions {
				if _, err := s.Insert(name, DensePayload(v)); err != nil {
					t.Fatal(err)
				}
			}
			chunks := int(side * side * 4 >> 12)
			label := fmt.Sprintf("%s codec %d", name, codec)
			step := func(what string, rewrite func() error) {
				t.Helper()
				before := arrayEntries(s, name)
				enc, car := s.rw.encoded.Load(), s.rw.carried.Load()
				if err := rewrite(); err != nil {
					t.Fatalf("%s %s: %v", label, what, err)
				}
				encoded, carried := s.rw.encoded.Load()-enc, s.rw.carried.Load()-car
				changed := baseChanges(before, arrayEntries(s, name))
				t.Logf("%s %s: encoded %d, carried %d", label, what, encoded, carried)
				if encoded != int64(changed) || encoded+carried != int64(n*chunks) {
					t.Fatalf("%s %s: encoded %d and carried %d of %d chunks, want %d encoded: the chunks whose base changed",
						label, what, encoded, carried, n*chunks, changed)
				}
				assertContent(t, s, name, versions)
				if rep, err := s.Verify(name); err != nil || !rep.Ok() {
					t.Fatalf("%s %s: verify: %v %v", label, what, err, rep.Problems)
				}
			}
			step("algorithm2", func() error {
				return s.Reorganize(name, ReorganizeOptions{Policy: PolicyAlgorithm2})
			})
			if enc := s.rw.encoded.Load(); enc != 0 {
				t.Fatalf("%s: Reorganize{Algorithm2} of an insert-order chain encoded %d chunks, want 0", label, enc)
			}
			if codec == compress.None {
				fmt.Fprintf(&dump, "# %s: Reorganize{Algorithm2} of %d insert-order %d² int32 drift versions, %d chunks each\n", name, n, side, chunks)
				dump.WriteString(entryDump(t, s, name))
			}
			step("linear", func() error {
				return s.Reorganize(name, ReorganizeOptions{Policy: PolicyLinearChain})
			})
			step("head-biased", func() error {
				return s.Reorganize(name, ReorganizeOptions{Policy: PolicyHeadBiased})
			})
			step("tune", func() error {
				rep, err := s.Tune(name, []layout.Query{layout.Snapshot(1, 1)})
				if err == nil && !rep.Reorganized {
					return fmt.Errorf("Tune did not rewrite: %s", rep.Reason)
				}
				return err
			})
			step("batched", func() error {
				return s.Reorganize(name, ReorganizeOptions{Policy: PolicyAlgorithm2, BatchK: 3})
			})
			step("compact", func() error { return s.Compact(name) })
			if codec == compress.LZ {
				s = reopenWithoutCodec(t, s, name, versions)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	golden := filepath.Join("testdata", "rewrite_carry.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(dump.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := dump.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("entries differ from %s at line %d:\n got  %s\n want %s", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("entries differ from %s: %d lines, want %d", golden, len(gl), len(wl))
	}
}

// reopenWithoutCodec reopens s, an LZ store holding array name's
// versions, with compress.None, then Reorganizes{Algorithm2}, Compacts
// and inserts one more version. Every frame a rewrite carries keeps its
// codec; every frame encoded after the reopen is sealed with None; and
// every version reads byte-identical. It returns the reopened store.
func reopenWithoutCodec(t *testing.T, s *Store, name string, versions []*array.Dense) *Store {
	t.Helper()
	written := arrayEntries(s, name)
	lz := 0
	for _, e := range written {
		if compress.Codec(e.Codec) == compress.LZ {
			lz++
		}
	}
	if lz == 0 {
		t.Fatalf("%s: no frame was sealed with LZ", name)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	opts := s.opts
	opts.Codec = compress.None
	s, err := Open(s.Dir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Reorganize(name, ReorganizeOptions{Policy: PolicyAlgorithm2}); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(name); err != nil {
		t.Fatal(err)
	}
	next := versions[len(versions)-1].Clone()
	for i := int64(0); i < next.NumCells(); i += 7 {
		next.SetBits(i, i)
	}
	id, err := s.Insert(name, DensePayload(next))
	if err != nil {
		t.Fatal(err)
	}
	for k, e := range arrayEntries(s, name) {
		was, old := written[k]
		switch {
		case old && was.Base == e.Base && was.Codec != e.Codec:
			t.Fatalf("%s: carried chunk %s changed codec %d → %d", name, k, was.Codec, e.Codec)
		case (!old || was.Base != e.Base) && compress.Codec(e.Codec) != compress.None:
			t.Fatalf("%s: chunk %s, encoded after the reopen, has codec %d, want none", name, k, e.Codec)
		}
	}
	assertContent(t, s, name, append(slices.Clip(versions), next))
	if id != len(versions)+1 {
		t.Fatalf("%s: the insert after the reopen got id %d, want %d", name, id, len(versions)+1)
	}
	if rep, err := s.Verify(name); err != nil || !rep.Ok() {
		t.Fatalf("%s: verify after the reopen: %v %v", name, err, rep.Problems)
	}
	return s
}

// TestRewriteHoldsOneColumn is the memory gate of the column build:
// the decoded chunk bytes a rewrite holds at once — sampling every
// version for the matrix, a build that re-parents every chunk, and
// DeleteVersion's re-parent of a middle version's child — stay within
// Parallelism × (n + 1) chunks, and do not grow with the array: an
// array four times the size at the same chunk size holds no more. A
// memo of every decoded version would hold n arrays. Compact keeps
// every base, so it decodes nothing and holds nothing.
func TestRewriteHoldsOneColumn(t *testing.T) {
	const n, chunkBytes = 8, 64 << 10
	type held struct{ sampled, relaid, deleted int64 }
	peak := func(side int64, parallelism int) held {
		opts := DefaultOptions()
		opts.ChunkBytes = chunkBytes
		opts.Parallelism = parallelism
		s := testStore(t, opts)
		defer s.Close()
		if err := s.CreateArray(schema2D("M", side)); err != nil {
			t.Fatal(err)
		}
		versions := driftSeries(n, side, 62)
		for _, v := range versions {
			if _, err := s.Insert("M", DensePayload(v)); err != nil {
				t.Fatal(err)
			}
		}
		measure := func(what string, op func() error) int64 {
			s.rw.peak.Store(0)
			if err := op(); err != nil {
				t.Fatalf("%d²: %s: %v", side, what, err)
			}
			if held := s.rw.held.Load(); held != 0 {
				t.Fatalf("%d²: %d decoded bytes still held after %s", side, held, what)
			}
			return s.rw.peak.Load()
		}
		reorganize := func(p LayoutPolicy) func() error {
			return func() error { return s.Reorganize("M", ReorganizeOptions{Policy: p}) }
		}
		var h held
		// the insert-order chain keeps its bases: the rewrite only samples
		h.sampled = measure("sampling", reorganize(PolicyAlgorithm2))
		enc := s.rw.encoded.Load()
		h.relaid = measure("the linear relayout", reorganize(PolicyLinearChain))
		if got := s.rw.encoded.Load() - enc; got != n*side*side*4/chunkBytes {
			t.Fatalf("%d²: the linear relayout encoded %d chunks, want every one", side, got)
		}
		assertContent(t, s, "M", versions)
		// on the linear chain every chunk of version n/2 - 1 is a delta
		// against version n/2, so each is re-parented onto n/2 + 1
		h.deleted = measure("the delete", func() error { return s.DeleteVersion("M", n/2) })
		if compacted := measure("the compaction", func() error { return s.Compact("M") }); compacted != 0 {
			t.Fatalf("%d²: Compact held %d decoded bytes, want 0", side, compacted)
		}
		for i, want := range versions {
			if i+1 == n/2 {
				continue
			}
			if got, err := s.Select("M", i+1); err != nil || !got.Dense.Equal(want) {
				t.Fatalf("%d²: version %d after the delete: err %v or not byte-identical", side, i+1, err)
			}
		}
		bound := int64(parallelism) * (n + 1) * chunkBytes
		for what, b := range map[string]int64{"sampling": h.sampled, "relaying out": h.relaid, "deleting": h.deleted} {
			if b <= 0 || b > bound {
				t.Fatalf("%d², parallelism %d: held %d bytes %s, want (0, %d]", side, parallelism, b, what, bound)
			}
		}
		return h
	}
	h512, h1024 := peak(512, 1), peak(1024, 1)
	t.Logf("held at the high-water mark, sampling / relaying out / deleting: 512² %d / %d / %d, 1024² %d / %d / %d bytes",
		h512.sampled, h512.relaid, h512.deleted, h1024.sampled, h1024.relaid, h1024.deleted)
	if h1024.sampled > h512.sampled || h1024.relaid > h512.relaid || h1024.deleted > h512.deleted {
		t.Fatalf("1024² held %+v bytes, more than 512²'s %+v", h1024, h512)
	}
	peak(1024, 2)
}

// TestDeleteVersionWritesOnlyReparented pins DeleteVersion as a
// re-parent: of a child whose chunks are half deltas on the deleted
// version and half materialized, only the deltas are re-encoded — the
// delete writes exactly that many frames — and every other entry keeps
// its base, file, offset and length. The array reads byte-identical and
// verifies clean, live and after a durable reopen.
func TestDeleteVersionWritesOnlyReparented(t *testing.T) {
	const side = 256 // 64 chunks of 4 KiB
	opts := smallOpts()
	opts.Durability = true
	s := testStore(t, opts)
	defer func() { _ = s.Close() }()
	if err := s.CreateArray(schema2D("D", side)); err != nil {
		t.Fatal(err)
	}
	versions := driftSeries(2, side, 63)
	// v3 rewrites the first half of v2's rows with full 32-bit values: no
	// delta pays there, so those chunks are materialized
	v3 := versions[1].Clone()
	rng := rand.New(rand.NewSource(64))
	for i := int64(0); i < v3.NumCells()/2; i++ {
		v3.SetBits(i, int64(rng.Uint32()))
	}
	versions = append(versions, v3)
	for _, v := range versions {
		if _, err := s.Insert("D", DensePayload(v)); err != nil {
			t.Fatal(err)
		}
	}
	before := arrayEntries(s, "D")
	onV2 := 0
	for k, e := range before {
		if strings.HasPrefix(k, "3/") && e.Base == 2 {
			onV2++
		}
	}
	if onV2 != 32 {
		t.Fatalf("%d of version 3's 64 chunks are deltas on version 2, want 32", onV2)
	}
	written := s.Stats().ChunksWritten
	if err := s.DeleteVersion("D", 2); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().ChunksWritten - written; got != int64(onV2) {
		t.Fatalf("DeleteVersion(2) wrote %d frames, want %d: the chunks based on version 2", got, onV2)
	}
	check := func(when string) {
		t.Helper()
		after := arrayEntries(s, "D")
		for k, e := range before {
			got, live := after[k]
			switch {
			case strings.HasPrefix(k, "2/"):
				if live {
					t.Fatalf("%s: chunk %s of the deleted version is still live", when, k)
				}
			case !live:
				t.Fatalf("%s: chunk %s is gone", when, k)
			case e.Base == 2:
				if got.Base == 2 {
					t.Fatalf("%s: chunk %s is still based on the deleted version", when, k)
				}
			case got != e:
				t.Fatalf("%s: chunk %s changed from %+v to %+v", when, k, e, got)
			}
		}
		for _, id := range []int{1, 3} {
			if got, err := s.Select("D", id); err != nil || !got.Dense.Equal(versions[id-1]) {
				t.Fatalf("%s: version %d: err %v or not byte-identical", when, id, err)
			}
		}
		if rep, err := s.Verify("D"); err != nil || !rep.Ok() {
			t.Fatalf("%s: verify: %v %v", when, err, rep.Problems)
		}
	}
	check("live")
	s = reopen(t, s)
	check("after a durable reopen")
}

// TestDeleteAndCompactRepairCorruptHead is the repair path for a bad
// frame in an array's newest version: DeleteVersion of that version,
// then Compact. Neither reads the bad frame — the version has no child,
// so the delete has no column to re-encode and reads nothing, and
// Compact carries only live frames — so both succeed, and the store
// verifies clean with every other version byte-identical.
func TestDeleteAndCompactRepairCorruptHead(t *testing.T) {
	const n, side = 4, 64 // 4 chunks of 4 KiB
	opts := smallOpts()
	opts.Durability = true
	s := testStore(t, opts)
	defer func() { _ = s.Close() }()
	if err := s.CreateArray(schema2D("H", side)); err != nil {
		t.Fatal(err)
	}
	versions := driftSeries(n, side, 65)
	for _, v := range versions {
		if _, err := s.Insert("H", DensePayload(v)); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.RLock()
	st := s.arrays["H"]
	ck, err := st.chunker()
	if err != nil {
		t.Fatal(err)
	}
	e := st.Versions[n-1].Chunks["A"][ck.Key(ck.All()[0])]
	path := filepath.Join(st.current.dir, e.File)
	s.mu.RUnlock()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	at := e.Offset + frameHeaderLen + e.Length/2
	if _, err := f.ReadAt(b, at); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b, at); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Select("H", n); err == nil {
		t.Fatalf("version %d reads through its corrupted frame", n)
	}
	if rep, err := s.Verify("H"); err != nil || rep.Ok() {
		t.Fatalf("verify missed the corrupted frame: %v %v", err, rep.Problems)
	}
	read := s.Stats().ChunksRead
	if err := s.DeleteVersion("H", n); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().ChunksRead - read; got != 0 {
		t.Fatalf("DeleteVersion of a version without children read %d frames, want 0", got)
	}
	read = s.Stats().ChunksRead
	if err := s.Compact("H"); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Stats().ChunksRead-read, int64((n-1)*4); got != want {
		t.Fatalf("Compact read %d frames, want %d: the live ones", got, want)
	}
	rep, err := s.Verify("H")
	if err != nil || !rep.Ok() || rep.DanglingBytes != 0 {
		t.Fatalf("verify after the repair: %v %v, %d dangling bytes", err, rep.Problems, rep.DanglingBytes)
	}
	assertContent(t, s, "H", versions[:n-1])
}
