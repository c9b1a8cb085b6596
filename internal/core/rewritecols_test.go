package core

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

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
// snapshots of the same versions (arrayBases).
func baseChanges(before, after map[string]int) int {
	n := 0
	for k, b := range before {
		if after[k] != b {
			n++
		}
	}
	return n
}

// arrayBases maps every live chunk of array name, by version, attribute
// and key, to its stored base.
func arrayBases(s *Store, name string) map[string]int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := map[string]int{}
	for _, vm := range s.arrays[name].Versions {
		if vm.Deleted {
			continue
		}
		for attr, chunks := range vm.Chunks {
			for k, e := range chunks {
				out[fmt.Sprintf("%d/%s/%s", vm.ID, attr, k)] = e.Base
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
// whose base changes, reads back byte-identical and verifies clean.
func TestRewriteCarriesKeptBases(t *testing.T) {
	const n = 8
	var dump strings.Builder
	for _, side := range []int64{64, 256} { // 4 and 64 chunks of 4 KiB
		name := fmt.Sprintf("C%d", side)
		s := testStore(t, smallOpts())
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
		step := func(what string, rewrite func() error) {
			t.Helper()
			before := arrayBases(s, name)
			enc, car := s.rw.encoded.Load(), s.rw.carried.Load()
			if err := rewrite(); err != nil {
				t.Fatalf("%s %s: %v", name, what, err)
			}
			encoded, carried := s.rw.encoded.Load()-enc, s.rw.carried.Load()-car
			changed := baseChanges(before, arrayBases(s, name))
			t.Logf("%s %s: encoded %d, carried %d", name, what, encoded, carried)
			if encoded != int64(changed) || encoded+carried != int64(n*chunks) {
				t.Fatalf("%s %s: encoded %d and carried %d of %d chunks, want %d encoded: the chunks whose base changed",
					name, what, encoded, carried, n*chunks, changed)
			}
			assertContent(t, s, name, versions)
			if rep, err := s.Verify(name); err != nil || !rep.Ok() {
				t.Fatalf("%s %s: verify: %v %v", name, what, err, rep.Problems)
			}
		}
		step("algorithm2", func() error {
			return s.Reorganize(name, ReorganizeOptions{Policy: PolicyAlgorithm2})
		})
		if enc := s.rw.encoded.Load(); enc != 0 {
			t.Fatalf("%s: Reorganize{Algorithm2} of an insert-order chain encoded %d chunks, want 0", name, enc)
		}
		fmt.Fprintf(&dump, "# %s: Reorganize{Algorithm2} of %d insert-order %d² int32 drift versions, %d chunks each\n", name, n, side, chunks)
		dump.WriteString(entryDump(t, s, name))
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
		if err := s.Close(); err != nil {
			t.Fatal(err)
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

// TestRewriteHoldsOneColumn is the rewrite's memory gate: the decoded
// chunk bytes a rewrite holds at once — sampling every version for the
// matrix, and a build that re-parents every chunk — stay within
// Parallelism × (n + 1) chunks, and do not grow with the array: an
// array four times the size at the same chunk size holds no more. A
// memo of every decoded version would hold n arrays.
func TestRewriteHoldsOneColumn(t *testing.T) {
	const n, chunkBytes = 8, 64 << 10
	peak := func(side int64, parallelism int) (sampled, relaid int64) {
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
		measure := func(o ReorganizeOptions) int64 {
			s.rw.peak.Store(0)
			enc := s.rw.encoded.Load()
			if err := s.Reorganize("M", o); err != nil {
				t.Fatal(err)
			}
			if o.Policy == PolicyLinearChain && s.rw.encoded.Load()-enc != n*side*side*4/chunkBytes {
				t.Fatalf("%d²: the linear relayout encoded %d chunks, want every one", side, s.rw.encoded.Load()-enc)
			}
			if held := s.rw.held.Load(); held != 0 {
				t.Fatalf("%d²: %d decoded bytes still held after the rewrite", side, held)
			}
			return s.rw.peak.Load()
		}
		// the insert-order chain keeps its bases: the rewrite only samples
		sampled = measure(ReorganizeOptions{Policy: PolicyAlgorithm2})
		relaid = measure(ReorganizeOptions{Policy: PolicyLinearChain})
		assertContent(t, s, "M", versions)
		bound := int64(parallelism) * (n + 1) * chunkBytes
		if sampled <= 0 || sampled > bound || relaid <= 0 || relaid > bound {
			t.Fatalf("%d², parallelism %d: held %d bytes sampling and %d relaying out, want (0, %d]",
				side, parallelism, sampled, relaid, bound)
		}
		return sampled, relaid
	}
	s512, r512 := peak(512, 1)
	s1024, r1024 := peak(1024, 1)
	t.Logf("held at the high-water mark, sampling / relaying out: 512² %d / %d, 1024² %d / %d bytes", s512, r512, s1024, r1024)
	if s1024 > s512 || r1024 > r512 {
		t.Fatalf("1024² held %d / %d bytes, more than 512²'s %d / %d", s1024, r1024, s512, r512)
	}
	peak(1024, 2)
}
