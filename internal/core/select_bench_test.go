package core

import (
	"math/rand"
	"os"
	"testing"

	"arrayvers/internal/array"
	"arrayvers/internal/layout"
)

// BenchmarkSelectWarm measures selects answered entirely from the
// decoded-chunk cache: a single-version Select of a cached 4-chunk dense
// version, and a 4-version SelectMulti over cached versions. With no
// disk or delta work left, what remains is the select path's own
// overhead (snapshot, fan-out, copies, allocations).
func BenchmarkSelectWarm(b *testing.B) {
	opts := smallOpts()
	opts.CacheBytes = 16 << 20
	s, err := Open(b.TempDir(), opts)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	if err := s.CreateArray(schema2D("W", 64)); err != nil {
		b.Fatal(err)
	}
	ids := []int{1, 2, 3, 4}
	for _, v := range evolvingVersions(len(ids), 64, 74) {
		if _, err := s.Insert("W", DensePayload(v)); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := s.SelectMulti("W", ids); err != nil { // warm every version
		b.Fatal(err)
	}
	b.Run("single", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.Select("W", 4); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("multi4", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.SelectMulti("W", ids); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSelectColdChain measures a cold chain walk: version 32 of a
// 32-version insert-order chain, with the decoded-chunk cache off, so
// every select reads each chunk's root and its 31 delta frames and
// applies them — from the data log the inserts appended to (one pread
// per frame) and, compacted, from the log Compact rebuilt one chunk
// column at a time (one run of deltas). Four 128×128 int32 chunks; each version changes ~10 % of the
// cells by a little.
func BenchmarkSelectColdChain(b *testing.B) {
	for _, compacted := range []bool{false, true} {
		b.Run(map[bool]string{false: "log", true: "compacted"}[compacted], func(b *testing.B) {
			opts := DefaultOptions()
			opts.ChunkBytes = 64 << 10
			s, err := Open(b.TempDir(), opts)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			if err := s.CreateArray(schema2D("C", 256)); err != nil {
				b.Fatal(err)
			}
			const depth = 32
			for _, v := range evolvingVersions(depth, 256, 75) {
				if _, err := s.Insert("C", DensePayload(v)); err != nil {
					b.Fatal(err)
				}
			}
			compactIf(b, s, "C", compacted)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Select("C", depth); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInsertChain measures one insert onto a 16-deep insert-order
// chain of 512×512 int32 versions (four 256 KiB chunks, in the data
// log), each changing ~3 % of the cells, with the decoded-chunk cache
// off and on, and on with Durability. Off, the insert reads its delta
// base by walking the whole chain; on, the base is the chunks the
// previous insert admitted; durable, the insert also fsyncs the log and
// the manifest log. The far arm (cache on) inserts versions unrelated
// to each other — every cell random over the full range — so every
// chunk tries its delta and materializes. Every iteration inserts the
// 17th version and then (untimed) deletes it, so the chain stays 16
// deep.
func BenchmarkInsertChain(b *testing.B) {
	const side, depth = 512, 16
	near := driftSeries(depth+1, side, 87)
	far := make([]*array.Dense, depth+1)
	rng := rand.New(rand.NewSource(89))
	for i := range far {
		far[i] = array.MustDense(array.Int32, []int64{side, side})
		rng.Read(far[i].Bytes())
	}
	for _, arm := range []struct {
		name       string
		cacheBytes int64
		durable    bool
		versions   []*array.Dense
	}{
		{"cache=false", 0, false, near},
		{"cache=true", DefaultCacheBytes, false, near},
		{"durable=true", DefaultCacheBytes, true, near},
		{"far=true", DefaultCacheBytes, false, far},
	} {
		b.Run(arm.name, func(b *testing.B) {
			opts := DefaultOptions()
			opts.ChunkBytes = 256 << 10
			opts.CacheBytes = arm.cacheBytes
			opts.Durability = arm.durable
			s, err := Open(b.TempDir(), opts)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			if err := s.CreateArray(schema2D("I", side)); err != nil {
				b.Fatal(err)
			}
			for _, v := range arm.versions[:depth] {
				if _, err := s.Insert("I", DensePayload(v)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id, err := s.Insert("I", DensePayload(arm.versions[depth]))
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := s.DeleteVersion("I", id); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// driftSeries builds n side×side int32 versions of random 20-bit
// cells, each changing ~3 % of its predecessor's cells to new random
// values.
func driftSeries(n int, side int64, seed int64) []*array.Dense {
	rng := rand.New(rand.NewSource(seed))
	cur := array.MustDense(array.Int32, []int64{side, side})
	for i := int64(0); i < cur.NumCells(); i++ {
		cur.SetBits(i, int64(rng.Intn(1<<20)))
	}
	versions := make([]*array.Dense, n)
	for v := range versions {
		versions[v] = cur.Clone()
		for k := int64(0); k < cur.NumCells()*3/100; k++ {
			cur.SetBits(rng.Int63n(cur.NumCells()), int64(rng.Intn(1<<20)))
		}
	}
	return versions
}

// BenchmarkReorganize measures one rewrite of 48 insert-order 512×512
// int32 versions (four 256 KiB chunks each) — the benchmark's head-warm
// fixture shape. reorganize times Reorganize{PolicyAlgorithm2,
// MatrixSample: 4096}: it samples every chunk column once, and since
// the insert-order chain keeps every base, copies every frame and
// encodes none. relayout first lays out the array as a linear chain,
// untimed, then times that same Reorganize, which now changes every
// chunk's base: each column is walked again and every chunk encoded
// against its new parent. tune lays out the linear chain the same way,
// then times a Tune for a workload of the oldest version alone, at the
// far end of that chain, so every pass rewrites. compact times a
// durable Compact of the versions as written, all of their frames in
// the data log; each pass rebuilds that fixture untimed. delete inserts
// two drift versions onto the head untimed, each a delta on the one
// before, then times DeleteVersion of the first, which re-parents every
// chunk of the second onto the old head.
func BenchmarkReorganize(b *testing.B) {
	const side, n = 512, 48
	fixture := func(b *testing.B, durable bool) *Store {
		opts := DefaultOptions()
		opts.ChunkBytes = 256 << 10
		opts.CacheBytes = DefaultCacheBytes
		opts.Durability = durable
		s, err := Open(b.TempDir(), opts)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.CreateArray(schema2D("R", side)); err != nil {
			b.Fatal(err)
		}
		for _, v := range driftSeries(n, side, 88) {
			if _, err := s.Insert("R", DensePayload(v)); err != nil {
				b.Fatal(err)
			}
		}
		return s
	}
	b.Run("reorganize", func(b *testing.B) {
		s := fixture(b, false)
		defer s.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Reorganize("R", ReorganizeOptions{Policy: PolicyAlgorithm2, MatrixSample: 4096}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("relayout", func(b *testing.B) {
		s := fixture(b, false)
		defer s.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if err := s.Reorganize("R", ReorganizeOptions{Policy: PolicyLinearChain}); err != nil {
				b.Fatal(err)
			}
			enc := s.rw.encoded.Load()
			b.StartTimer()
			if err := s.Reorganize("R", ReorganizeOptions{Policy: PolicyAlgorithm2, MatrixSample: 4096}); err != nil {
				b.Fatal(err)
			}
			if got := s.rw.encoded.Load() - enc; got != n*4 {
				b.Fatalf("the relayout encoded %d chunks, want all %d", got, n*4)
			}
		}
	})
	b.Run("tune", func(b *testing.B) {
		s := fixture(b, false)
		defer s.Close()
		wl := []layout.Query{layout.Snapshot(1, 1)}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if err := s.Reorganize("R", ReorganizeOptions{Policy: PolicyLinearChain}); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			rep, err := s.Tune("R", wl)
			if err != nil {
				b.Fatal(err)
			}
			if !rep.Reorganized {
				b.Fatalf("Tune did not rewrite: %s", rep.Reason)
			}
		}
	})
	b.Run("delete", func(b *testing.B) {
		s := fixture(b, false)
		defer s.Close()
		head, err := s.Select("R", n)
		if err != nil {
			b.Fatal(err)
		}
		cur := head.Dense
		rng := rand.New(rand.NewSource(89))
		drift := func() *array.Dense {
			cur = cur.Clone()
			for k := int64(0); k < cur.NumCells()*3/100; k++ {
				cur.SetBits(rng.Int63n(cur.NumCells()), int64(rng.Intn(1<<20)))
			}
			return cur
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			first, err := s.Insert("R", DensePayload(drift()))
			if err == nil {
				_, err = s.Insert("R", DensePayload(drift()))
			}
			if err != nil {
				b.Fatal(err)
			}
			enc := s.rw.encoded.Load()
			b.StartTimer()
			if err := s.DeleteVersion("R", first); err != nil {
				b.Fatal(err)
			}
			if got := s.rw.encoded.Load() - enc; got != 4 {
				b.Fatalf("the delete re-encoded %d chunks, want all 4 of the second version", got)
			}
		}
	})
	b.Run("compact", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s := fixture(b, true)
			b.StartTimer()
			if err := s.Compact("R"); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
			if err := os.RemoveAll(s.Dir()); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	})
}
