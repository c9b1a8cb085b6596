package core

import "testing"

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
// 32-version insert-order chain, co-located, with the decoded-chunk
// cache off, so every select reads each chunk's root and its 31 delta
// frames and applies them. Four 128×128 int32 chunks; each version
// changes ~10 % of the cells by a little.
func BenchmarkSelectColdChain(b *testing.B) {
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Select("C", depth); err != nil {
			b.Fatal(err)
		}
	}
}
