package matmat

import (
	"math/rand"
	"strings"
	"testing"

	"arrayvers/internal/array"
	"arrayvers/internal/delta"
)

func versionSeries(n int, side int64, seed int64) []*array.Dense {
	rng := rand.New(rand.NewSource(seed))
	cur := array.MustDense(array.Int32, []int64{side, side})
	for i := int64(0); i < cur.NumCells(); i++ {
		cur.SetBits(i, int64(rng.Intn(500)))
	}
	out := make([]*array.Dense, n)
	for v := 0; v < n; v++ {
		out[v] = cur.Clone()
		for i := int64(0); i < cur.NumCells(); i++ {
			if rng.Float64() < 0.1 {
				cur.SetBits(i, cur.Bits(i)+int64(rng.Intn(5)-2))
			}
		}
	}
	return out
}

func TestComputeExact(t *testing.T) {
	vs := versionSeries(5, 32, 1)
	mm, err := Compute(vs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mm.Validate(); err != nil {
		t.Fatal(err)
	}
	// diagonal = raw materialization size
	for i := range vs {
		if mm.Cost[i][i] != vs[i].SizeBytes() {
			t.Fatalf("MM(%d,%d) = %d, want %d", i, i, mm.Cost[i][i], vs[i].SizeBytes())
		}
	}
	// delta cost grows with version distance on this smooth series
	if mm.Cost[0][1] >= mm.Cost[0][4] {
		t.Fatalf("MM(0,1)=%d not < MM(0,4)=%d", mm.Cost[0][1], mm.Cost[0][4])
	}
	if !mm.DeltasAlwaysCheaper() {
		t.Fatal("similar versions should always delta cheaper than materializing")
	}
}

func TestComputeSampledApproximatesExact(t *testing.T) {
	vs := versionSeries(4, 64, 2)
	exact, err := Compute(vs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := Compute(vs, Options{Sample: 512, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := sampled.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < exact.N; i++ {
		for j := 0; j < i; j++ {
			ratio := float64(sampled.Cost[i][j]) / float64(exact.Cost[i][j])
			if ratio < 0.3 || ratio > 3.0 {
				t.Errorf("MM(%d,%d): sampled %d vs exact %d (ratio %.2f)",
					i, j, sampled.Cost[i][j], exact.Cost[i][j], ratio)
			}
		}
	}
}

func TestComputeSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	base := array.MustSparse(array.Int32, []int64{10000, 10000}, 0)
	for i := 0; i < 200; i++ {
		base.SetBits(rng.Int63n(1e8), int64(rng.Intn(50)+1))
	}
	v2 := base.Clone()
	for i := 0; i < 10; i++ {
		v2.SetBits(rng.Int63n(1e8), int64(rng.Intn(50)+1))
	}
	mm, err := ComputeSparse([]*array.Sparse{base, v2})
	if err != nil {
		t.Fatal(err)
	}
	if err := mm.Validate(); err != nil {
		t.Fatal(err)
	}
	if mm.Cost[0][1] >= mm.Cost[0][0] {
		t.Fatalf("sparse delta %d not below materialization %d", mm.Cost[0][1], mm.Cost[0][0])
	}
}

func TestComputeErrors(t *testing.T) {
	if _, err := Compute(nil, Options{}); err == nil {
		t.Error("empty series accepted")
	}
	if _, err := ComputeSparse(nil); err == nil {
		t.Error("empty sparse series accepted")
	}
	a := array.MustDense(array.Int32, []int64{4})
	b := array.MustDense(array.Int32, []int64{5})
	if _, err := Compute([]*array.Dense{a, b}, Options{}); err == nil {
		t.Error("mismatched shapes accepted")
	}
	// the odd version out is the third; both modes refuse the series
	// before any estimate and name it
	short := array.MustDense(array.Int32, []int64{64})
	long := array.MustDense(array.Int32, []int64{128})
	wide := array.MustDense(array.Int64, []int64{64})
	for _, c := range []struct {
		name string
		vs   []*array.Dense
		opts Options
	}{
		{"sampled shape", []*array.Dense{short, short, long}, Options{Sample: 16}},
		{"exact dtype", []*array.Dense{short, short, wide}, Options{}},
		{"sampled dtype", []*array.Dense{short, short, wide}, Options{Sample: 16}},
	} {
		_, err := Compute(c.vs, c.opts)
		if err == nil {
			t.Errorf("%s: mismatched series accepted", c.name)
		} else if !strings.Contains(err.Error(), "version 2") {
			t.Errorf("%s: error %q does not name version 2", c.name, err)
		}
	}
}

// TestComputeSampledIsEstimateSize pins the sampled matrix to the
// paper's estimator: every entry is what delta.EstimateSampled returns
// for that pair from its cells at delta.SampleCells' draw, at the
// matrix's sample size and seed, in the draw's order.
func TestComputeSampledIsEstimateSize(t *testing.T) {
	vs := versionSeries(6, 48, 5)
	opts := Options{Sample: 300, Seed: 7}
	mm, err := Compute(vs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := mm.Validate(); err != nil {
		t.Fatal(err)
	}
	n := vs[0].NumCells()
	idx := delta.SampleCells(n, opts.Sample, opts.Seed)
	for i := range vs {
		for j := 0; j < i; j++ {
			if want := delta.EstimateSampled(vs[i].DType(), n, delta.Gather(vs[i], idx), delta.Gather(vs[j], idx)); mm.Cost[i][j] != want {
				t.Errorf("MM(%d,%d) = %d, estimate %d", i, j, mm.Cost[i][j], want)
			}
		}
	}
}

// BenchmarkComputeSampled prices the sampled matrix of 48 versions of a
// 512² int32 array, each differing from the last by patch updates over
// about 3 % of its cells, at 4096 sampled cells: the planning step of a
// reorganize over a chain of that length.
func BenchmarkComputeSampled(b *testing.B) {
	const n, side, patch = 48, 512, 32
	rng := rand.New(rand.NewSource(1))
	cur := array.MustDense(array.Int32, []int64{side, side})
	for i := int64(0); i < cur.NumCells(); i++ {
		cur.SetBits(i, int64(rng.Intn(1<<20)))
	}
	vs := make([]*array.Dense, n)
	for v := range vs {
		vs[v] = cur.Clone()
		// 8 patches of 32×32 cells: 8192 of 262144 cells, about 3 %
		for p := 0; p < 8; p++ {
			r0, c0 := rng.Int63n(side-patch), rng.Int63n(side-patch)
			for r := r0; r < r0+patch; r++ {
				for c := c0; c < c0+patch; c++ {
					cur.SetBits(r*side+c, cur.Bits(r*side+c)+int64(rng.Intn(64)-32))
				}
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compute(vs, Options{Sample: 4096, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
