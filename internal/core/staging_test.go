package core

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"arrayvers/internal/array"
	"arrayvers/internal/compress"
	"arrayvers/internal/delta"
	"arrayvers/internal/matmat"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/staging_decisions.golden and testdata/rewrite_carry.golden from this run")

// goldenSeries builds n versions of a two-attribute (int32, int8)
// array of the given shape, each changing ~10 % of the cells by a
// little, and every seventh replacing its leading third with noise, so
// both the delta and the materialize arm of every decision fire.
func goldenSeries(n int, shape []int64, seed int64) []Payload {
	rng := rand.New(rand.NewSource(seed))
	a := array.MustDense(array.Int32, shape)
	b := array.MustDense(array.Int8, shape)
	for i := int64(0); i < a.NumCells(); i++ {
		a.SetBits(i, int64(rng.Intn(1000)))
		b.SetBits(i, int64(rng.Intn(100)))
	}
	out := make([]Payload, n)
	for v := range out {
		out[v] = Payload{Planes: []Plane{{Dense: a.Clone()}, {Dense: b.Clone()}}}
		for i := int64(0); i < a.NumCells(); i++ {
			switch {
			case v%7 == 6 && i < a.NumCells()/3:
				// a jump in the leading third: its chunks cost more as a
				// delta than as a fresh root, the others do not
				a.SetBits(i, int64(int32(rng.Uint32())))
				b.SetBits(i, int64(int8(rng.Uint32())))
			case rng.Float64() < 0.1:
				a.SetBits(i, a.Bits(i)+int64(rng.Intn(5)-2))
				b.SetBits(i, int64(int8(b.Bits(i)+int64(rng.Intn(3)-1))))
			}
		}
	}
	return out
}

func goldenSchema(name string, shape []int64) array.Schema {
	sch := array.Schema{Name: name, Attrs: []array.Attribute{{Name: "A", Type: array.Int32}, {Name: "B", Type: array.Int8}}}
	for i, n := range shape {
		sch.Dims = append(sch.Dims, array.Dimension{Name: fmt.Sprintf("D%d", i), Lo: 0, Hi: n - 1})
	}
	return sch
}

// dumpEntries renders every live chunk entry's delta base, stored
// length and codec, in (version, attribute, chunk) order.
func dumpEntries(t *testing.T, s *Store, name string, b *strings.Builder) {
	t.Helper()
	s.mu.RLock()
	st := s.arrays[name]
	vms := append([]*versionMeta(nil), st.Versions...)
	attrs := st.Schema.Attrs
	s.mu.RUnlock()
	for _, vm := range vms {
		if vm.Deleted {
			continue
		}
		for _, attr := range attrs {
			keys := make([]string, 0, len(vm.Chunks[attr.Name]))
			for k := range vm.Chunks[attr.Name] {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				e := vm.Chunks[attr.Name][k]
				fmt.Fprintf(b, "%s v%d %s %s base=%d len=%d codec=%d\n", name, vm.ID, attr.Name, k, e.Base, e.Length, e.Codec)
			}
		}
	}
}

// TestStagingDecisionsGolden pins every delta-or-materialize decision
// of the write, delete and rewrite paths: after a seeded script of
// inserts (one of them a two-payload batch), a mid-chain DeleteVersion
// and three Reorganizes (MatrixSample 4096; MatrixSample 0, which means
// the same 4096-cell sample, even for E's 1 600 cells; 4096 batched),
// every chunk entry's base, length and codec must match the golden byte
// for byte, with the decoded-chunk cache off and on. An insert tries
// its head chunk by chunk and keeps each chunk's delta only when it is
// smaller than the raw chunk; G (9 000 cells) has ragged edge chunks, E
// (1 600 cells) fits in few. -update rewrites the golden.
func TestStagingDecisionsGolden(t *testing.T) {
	golden := filepath.Join("testdata", "staging_decisions.golden")
	for _, cacheBytes := range []int64{0, DefaultCacheBytes} {
		t.Run(fmt.Sprintf("cache=%v", cacheBytes > 0), func(t *testing.T) {
			opts := DefaultOptions()
			opts.ChunkBytes = 4 << 10
			opts.Codec = compress.LZ
			opts.CacheBytes = cacheBytes
			s := testStore(t, opts)
			defer s.Close()
			var out strings.Builder
			step := func(label string) {
				fmt.Fprintf(&out, "# %s\n", label)
				dumpEntries(t, s, "G", &out)
				dumpEntries(t, s, "E", &out)
			}
			gShape, eShape := []int64{100, 90}, []int64{40, 40}
			gs, es := goldenSeries(26, gShape, 47), goldenSeries(8, eShape, 48)
			for _, sch := range []array.Schema{goldenSchema("G", gShape), goldenSchema("E", eShape)} {
				if err := s.CreateArray(sch); err != nil {
					t.Fatal(err)
				}
			}
			for _, p := range gs[:24] {
				if _, err := s.Insert("G", p); err != nil {
					t.Fatal(err)
				}
			}
			for _, p := range es {
				if _, err := s.Insert("E", p); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := s.Write(context.Background(), []MultiInsert{{Array: "G", Payloads: gs[24:]}}); err != nil {
				t.Fatal(err)
			}
			step("inserts")
			if err := s.DeleteVersion("G", 12); err != nil {
				t.Fatal(err)
			}
			if err := s.DeleteVersion("E", 4); err != nil {
				t.Fatal(err)
			}
			step("delete")
			for _, ro := range []ReorganizeOptions{
				{Policy: PolicyAlgorithm2, MatrixSample: 4096},
				{Policy: PolicyAlgorithm2},
				{Policy: PolicyAlgorithm2, MatrixSample: 4096, BatchK: 8},
			} {
				for _, name := range []string{"G", "E"} {
					if err := s.Reorganize(name, ro); err != nil {
						t.Fatal(err)
					}
				}
				step(fmt.Sprintf("reorganize sample=%d batch=%d", ro.MatrixSample, ro.BatchK))
			}
			for i, p := range gs {
				if i+1 == 12 {
					continue
				}
				for ai := range p.Planes {
					got, err := s.Read(context.Background(), ReadQuery{Array: "G", IDs: []int{i + 1}, Attr: []string{"A", "B"}[ai]})
					if err != nil {
						t.Fatal(err)
					}
					if !got[0].Dense.Equal(p.Planes[ai].Dense) {
						t.Fatalf("G version %d attribute %d not byte-identical", i+1, ai)
					}
				}
			}
			if *updateGolden && cacheBytes == 0 {
				if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if got := out.String(); got != string(want) {
				gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
				for i := 0; i < len(gl) && i < len(wl); i++ {
					if gl[i] != wl[i] {
						t.Fatalf("decisions differ from %s at line %d:\n got  %s\n want %s", golden, i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("decisions differ from %s: %d lines, want %d", golden, len(gl), len(wl))
			}
		})
	}
}

// TestChunkwiseGather checks the rewrite's column-by-column sampling
// against the plane-sized reads it replaces, on 1-D, 2-D and 3-D arrays
// with ragged edge chunks and 1-, 4- and 8-byte cells: sampleColumns
// returns exactly delta.Gather over each assembled plane, for an
// unsorted draw; and the rewrite's sampled matrix is exactly
// matmat.Compute over the assembled planes.
func TestChunkwiseGather(t *testing.T) {
	shapes := [][]int64{{1000}, {70, 45}, {13, 10, 7}}
	for _, shape := range shapes {
		for _, dt := range []array.DataType{array.Int8, array.Int32, array.Int64} {
			t.Run(fmt.Sprintf("%v/%v", shape, dt), func(t *testing.T) {
				opts := DefaultOptions()
				opts.ChunkBytes = 256 // ragged: no extent is a multiple of the side
				s := testStore(t, opts)
				defer s.Close()
				sch := array.Schema{Name: "T", Attrs: []array.Attribute{{Name: "A", Type: dt}}}
				for i, n := range shape {
					sch.Dims = append(sch.Dims, array.Dimension{Name: fmt.Sprintf("D%d", i), Lo: 0, Hi: n - 1})
				}
				if err := s.CreateArray(sch); err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(len(shape))*10 + int64(dt)))
				cur := array.MustDense(dt, shape)
				for i := int64(0); i < cur.NumCells(); i++ {
					cur.SetBits(i, array.TruncateBits(dt, rng.Int63()))
				}
				var planes []*array.Dense
				for v := 0; v < 5; v++ {
					for k := int64(0); k < cur.NumCells()/10; k++ {
						i := rng.Int63n(cur.NumCells())
						cur.SetBits(i, array.TruncateBits(dt, cur.Bits(i)+int64(rng.Intn(7)-3)))
					}
					planes = append(planes, cur.Clone())
					if _, err := s.Insert("T", DensePayload(cur)); err != nil {
						t.Fatal(err)
					}
				}
				v, release, err := s.snapshotUncached("T")
				if err != nil {
					t.Fatal(err)
				}
				defer release()
				ck, err := v.st.chunker()
				if err != nil {
					t.Fatal(err)
				}
				n := cur.NumCells()
				idx := delta.SampleCells(n, 600, 7)
				g, err := s.sampleColumns(v, sch.Attrs[0], locateCells(ck, idx))
				if err != nil {
					t.Fatal(err)
				}
				for i, id := range v.ids {
					if want := delta.Gather(planes[i], idx); !slices.Equal(g[i], want) {
						t.Fatalf("version %d: column-wise gather differs from delta.Gather", id)
					}
				}
				for _, sample := range []int{300, int(n) / 2} {
					in, err := s.matrixInputOf(v, sample)
					if err != nil {
						t.Fatal(err)
					}
					got, err := in.matrix(0, len(v.ids))
					if err != nil {
						t.Fatal(err)
					}
					want, err := matmat.Compute(planes, matmat.Options{Sample: sample, Seed: 0})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got.Cost, want.Cost) {
						t.Fatalf("sample %d: matrix %v, want %v", sample, got.Cost, want.Cost)
					}
				}
			})
		}
	}
}

// TestColdInsertMemoizesOnlyItsBase pins what one cache-off insert onto
// a 16-deep chain allocates. Staging walks the chain to the delta base
// chunk by chunk and memoizes only the base's chunks, not a copy of
// every link it passes, so the insert allocates a few planes, not one
// per link.
func TestColdInsertMemoizesOnlyItsBase(t *testing.T) {
	const side, depth = 256, 16
	versions := driftSeries(depth+1, side, 87)
	opts := DefaultOptions() // cache off: the base comes from a chain walk
	opts.ChunkBytes = 64 << 10
	s := testStore(t, opts)
	defer s.Close()
	if err := s.CreateArray(schema2D("I", side)); err != nil {
		t.Fatal(err)
	}
	for _, v := range versions[:depth] {
		if _, err := s.Insert("I", DensePayload(v)); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	id, err := s.Insert("I", DensePayload(versions[depth]))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	for k, base := range chunkBases(s, "I", id) {
		if base != depth {
			t.Fatalf("chunk %s of the insert has base %d, want a delta off version %d", k, base, depth)
		}
	}
	plane := uint64(versions[depth].SizeBytes())
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 6*plane {
		t.Fatalf("the insert allocated %d bytes (%.1f planes of %d), want at most 6 planes", grew, float64(grew)/float64(plane), plane)
	}
}

// TestFarPairInsertStoresRaw: an insert unrelated to its head — every
// cell random over the full int32 range — keeps no delta, since no
// chunk's hybrid blob beats the raw chunk: every chunk is stored raw
// (Base == -1). The next insert, a near one, deltas every chunk against
// it. Both read back byte-identical, live and after a reopen.
func TestFarPairInsertStoresRaw(t *testing.T) {
	const side = 64
	s := testStore(t, smallOpts())
	defer func() { s.Close() }()
	if err := s.CreateArray(schema2D("F", side)); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(61))
	versions := make([]*array.Dense, 3)
	for i := range versions[:2] {
		versions[i] = array.MustDense(array.Int32, []int64{side, side})
		rng.Read(versions[i].Bytes())
	}
	versions[2] = versions[1].Clone()
	for i := int64(0); i < versions[2].NumCells(); i += 17 {
		versions[2].SetBits(i, versions[2].Bits(i)^1)
	}
	for _, v := range versions {
		if _, err := s.Insert("F", DensePayload(v)); err != nil {
			t.Fatal(err)
		}
	}
	for id, want := range map[int]int{2: -1, 3: 2} {
		bases := chunkBases(s, "F", id)
		if len(bases) < 2 {
			t.Fatalf("version %d has %d chunks, want several", id, len(bases))
		}
		for key, base := range bases {
			if base != want {
				t.Errorf("version %d chunk %s: base %d, want %d", id, key, base, want)
			}
		}
	}
	for range 2 {
		for i, v := range versions {
			mustSelect(t, s, "F", i+1, v)
		}
		s = reopen(t, s)
	}
}

// TestReorderedInsertFindsItsPredecessor: two writers' payloads can
// commit out of the order they were sent in, so a payload's head may be
// unrelated to it while its true predecessor sits just behind. A chunk
// whose delta against the head does not shrink it tries the two
// versions before the head that are resident and look alike: here
// version 4, a near copy of version 1, commits after versions 2 and 3
// of an unrelated series. With a cache, version 1's chunks are resident
// and version 4 deltas every chunk against them; without one, trying
// them would mean walking their chains, and version 4 is stored raw.
// Every version reads back byte-identical.
func TestReorderedInsertFindsItsPredecessor(t *testing.T) {
	const side = 64
	rng := rand.New(rand.NewSource(62))
	a, b := array.MustDense(array.Int32, []int64{side, side}), array.MustDense(array.Int32, []int64{side, side})
	rng.Read(a.Bytes())
	rng.Read(b.Bytes())
	near := func(d *array.Dense, step int64) *array.Dense {
		c := d.Clone()
		for i := int64(0); i < c.NumCells(); i += step {
			c.SetBits(i, c.Bits(i)^3)
		}
		return c
	}
	versions := []*array.Dense{a, b, near(b, 23), near(a, 19)}
	for _, cacheBytes := range []int64{0, DefaultCacheBytes} {
		t.Run(fmt.Sprintf("cache=%v", cacheBytes > 0), func(t *testing.T) {
			opts := smallOpts()
			opts.CacheBytes = cacheBytes
			s := testStore(t, opts)
			defer s.Close()
			if err := s.CreateArray(schema2D("R", side)); err != nil {
				t.Fatal(err)
			}
			for _, v := range versions {
				if _, err := s.Insert("R", DensePayload(v)); err != nil {
					t.Fatal(err)
				}
			}
			want := map[int]int{2: -1, 3: 2, 4: -1}
			if cacheBytes > 0 {
				want[4] = 1
			}
			for id, base := range want {
				for key, got := range chunkBases(s, "R", id) {
					if got != base {
						t.Errorf("version %d chunk %s: base %d, want %d", id, key, got, base)
					}
				}
			}
			for i, v := range versions {
				mustSelect(t, s, "R", i+1, v)
			}
		})
	}
}

// cutCount is how many writes have cut their payloads so far.
func cutCount(s *Store) int64 { return s.prof.comStages[StageCut].hist.Snapshot().Count }

// TestWriteRecutsForRecreatedArray: a Write cuts its payload for the
// array it looked up, then waits for the write latch. The array is
// dropped and recreated while it waits, so the write stages against the
// new array, whose cut it makes again under the latch. Recreated with
// the same schema, the version commits as the new array's first and
// reads back byte-identical, live and after a durable reopen; recreated
// with another shape, the write fails with the schema error and commits
// nothing. A cut bound to the old array, poisoned, is never what a
// write commits.
func TestWriteRecutsForRecreatedArray(t *testing.T) {
	const side = 32
	for _, same := range []bool{true, false} {
		t.Run(fmt.Sprintf("sameSchema=%v", same), func(t *testing.T) {
			opts := smallOpts()
			opts.Durability = true
			s := testStore(t, opts)
			defer func() { s.Close() }()
			if err := s.CreateArray(schema2D("G", side)); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Insert("G", DensePayload(crashContent(1, side))); err != nil {
				t.Fatal(err)
			}
			s.mu.RLock()
			old := s.arrays["G"]
			s.mu.RUnlock()
			payload := crashContent(2, side)
			// hold the old array's latch so the write waits for it after
			// its cut
			old.writeMu.Lock()
			before := cutCount(s)
			done := make(chan error, 1)
			go func() {
				_, err := s.Write(context.Background(), []MultiInsert{{Array: "G", Payloads: []Payload{DensePayload(payload)}}})
				done <- err
			}()
			deadline := time.Now().Add(hangBound)
			for cutCount(s) == before {
				if time.Now().After(deadline) {
					old.writeMu.Unlock()
					t.Fatal("the write never cut its payload")
				}
				time.Sleep(time.Millisecond)
			}
			reachLatch()
			err := s.dropArray(old, false)
			if err == nil {
				newSide := int64(side)
				if !same {
					newSide = side / 2
				}
				err = s.CreateArray(schema2D("G", newSide))
			}
			old.writeMu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			select {
			case err = <-done:
			case <-time.After(hangBound):
				t.Fatal("the write never finished")
			}
			if !same {
				if err == nil || !strings.Contains(err.Error(), "payload shape") {
					t.Fatalf("write into the reshaped array: %v, want the schema error", err)
				}
				for range 2 {
					if info, err := s.Info("G"); err != nil || info.NumVersions != 0 {
						t.Fatalf("reshaped array: %d versions (%v), want 0", info.NumVersions, err)
					}
					s = reopen(t, s)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			// a stale cut handed to write directly, its chunks zeroed
			next := crashContent(3, side)
			pc := s.cutPayloads(context.Background(), old, []Payload{DensePayload(next)})
			for _, c := range pc.chunks[0][0] {
				clear(c.Bytes())
			}
			st, err := s.lockWrite("G")
			if err != nil {
				t.Fatal(err)
			}
			_, err = s.write(context.Background(), []*arrayState{st}, []*payloadCut{pc}, "insert")
			st.writeMu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			for range 2 {
				mustSelect(t, s, "G", 1, payload)
				mustSelect(t, s, "G", 2, next)
				s = reopen(t, s)
			}
		})
	}
}
