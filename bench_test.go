package arrayvers_test

// One testing.B benchmark per evaluation artifact (Tables I–VII and the
// two §V-D experiments), each running the corresponding experiment
// harness at QuickScale. `cmd/avbench` runs the same experiments at full
// laptop scale and prints the paper-style tables; experiment ids E1–E10
// follow DESIGN.md's experiment index.

import (
	"math/rand"
	"testing"

	"arrayvers"
	"arrayvers/internal/array"
	"arrayvers/internal/bench"
)

func BenchmarkTable1Differencing(b *testing.B) {
	sc := bench.QuickScale()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table1(sc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2DeltaCompression(b *testing.B) {
	sc := bench.QuickScale()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table2(sc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3And4OSMQueries(b *testing.B) {
	sc := bench.QuickScale()
	for i := 0; i < b.N; i++ {
		if _, _, err := bench.Table3And4(b.TempDir(), sc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5Workloads(b *testing.B) {
	sc := bench.QuickScale()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table5(b.TempDir(), sc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable6VCSOnOSM(b *testing.B) {
	sc := bench.QuickScale()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table6(b.TempDir(), sc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable7VCSOnNOAA(b *testing.B) {
	sc := bench.QuickScale()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table7(b.TempDir(), sc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMaterializationVsLinear(b *testing.B) {
	sc := bench.QuickScale()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Materialization(b.TempDir(), sc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWorkloadAwareLayout(b *testing.B) {
	sc := bench.QuickScale()
	for i := 0; i < b.N; i++ {
		if _, err := bench.WorkloadAware(b.TempDir(), sc); err != nil {
			b.Fatal(err)
		}
	}
}

// chainSeries is a smoothly evolving dense series of 24 versions: about
// 5% of cells move by a small step per version, so every version deltas
// off its predecessor.
func chainSeries(side, seed int64) []*array.Dense {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*array.Dense, 24)
	cur := array.MustDense(array.Int32, []int64{side, side})
	for i := int64(0); i < cur.NumCells(); i++ {
		cur.SetBits(i, int64(rng.Intn(1000)))
	}
	for v := range out {
		out[v] = cur.Clone()
		for i := int64(0); i < cur.NumCells(); i++ {
			if rng.Float64() < 0.05 {
				cur.SetBits(i, cur.Bits(i)+int64(rng.Intn(5)-2))
			}
		}
	}
	return out
}

// selectMultiChainStore builds a 24-version delta chain once per
// benchmark configuration; the returned ids select every version.
func selectMultiChainStore(b *testing.B, parallelism int, cacheBytes int64) (*arrayvers.Store, []int) {
	b.Helper()
	opts := arrayvers.DefaultOptions()
	opts.ChunkBytes = 32 << 10
	opts.Parallelism = parallelism
	opts.CacheBytes = cacheBytes
	s, err := arrayvers.Open(b.TempDir(), opts)
	if err != nil {
		b.Fatal(err)
	}
	const side = 128
	schema := arrayvers.Schema{
		Name:  "Chain",
		Dims:  []arrayvers.Dimension{{Name: "Y", Lo: 0, Hi: side - 1}, {Name: "X", Lo: 0, Hi: side - 1}},
		Attrs: []arrayvers.Attribute{{Name: "V", Type: arrayvers.Int32}},
	}
	if err := s.CreateArray(schema); err != nil {
		b.Fatal(err)
	}
	var ids []int
	for _, v := range chainSeries(side, 9) {
		id, err := s.Insert("Chain", arrayvers.DensePayload(v))
		if err != nil {
			b.Fatal(err)
		}
		ids = append(ids, id)
	}
	return s, ids
}

func benchmarkSelectMultiChain(b *testing.B, parallelism int, cacheBytes int64) {
	s, ids := selectMultiChainStore(b, parallelism, cacheBytes)
	d, err := s.SelectMulti("Chain", ids)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(d.SizeBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SelectMulti("Chain", ids); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelectMultiChainSerialNoCache is the seed behavior: one
// serial chain walk per query, nothing reused across queries.
func BenchmarkSelectMultiChainSerialNoCache(b *testing.B) {
	benchmarkSelectMultiChain(b, 1, 0)
}

// BenchmarkSelectMultiChainParallelCached runs the same stacked select
// with the worker pool at GOMAXPROCS and the decoded-chunk cache on.
func BenchmarkSelectMultiChainParallelCached(b *testing.B) {
	benchmarkSelectMultiChain(b, 0, arrayvers.DefaultCacheBytes)
}
