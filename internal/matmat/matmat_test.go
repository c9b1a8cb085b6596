package matmat

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
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
			if want := delta.EstimateSampled(vs[i].DType(), n, int64(opts.Sample), delta.Gather(vs[i], idx), delta.Gather(vs[j], idx)); mm.Cost[i][j] != want {
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

// oracleFromSamples is FromSamples as the paper states it: every pair
// priced over all R sampled cells, one pair after another.
func oracleFromSamples(dt array.DataType, cells int64, g [][]int64) *Matrix {
	n := len(g)
	m := New(n)
	for i := range n {
		m.Cost[i][i] = cells * int64(dt.Size())
		for j := range i {
			size := delta.EstimateSampled(dt, cells, int64(len(g[i])), g[i], g[j])
			m.Cost[i][j] = size
			m.Cost[j][i] = size
		}
	}
	return m
}

// sampledSeries gathers n versions of a 1-D array of cells cells of dtype
// dt at a draw of sample positions. The first (1−constant) of the cells
// change: version 1 changes every one of them and each later version
// about half, by a small step or, one time in twenty, by a random bit
// pattern, so the pairs mix narrow differences with outliers.
func sampledSeries(dt array.DataType, n int, cells int64, sample int, constant float64, seed int64) [][]int64 {
	rng := rand.New(rand.NewSource(seed))
	cur := array.MustDense(dt, []int64{cells})
	for i := range cells {
		cur.SetBits(i, array.TruncateBits(dt, rng.Int63()))
	}
	moving := int64(math.Round((1 - constant) * float64(cells)))
	idx := Draw(cells, sample, seed)
	g := make([][]int64, n)
	for v := range n {
		if v > 0 {
			for i := range moving {
				if v > 1 && rng.Intn(2) == 0 {
					continue
				}
				old := cur.Bits(i)
				nv := array.TruncateBits(dt, old+int64(rng.Intn(8)+1))
				if rng.Intn(20) == 0 {
					nv = array.TruncateBits(dt, rng.Int63())
				}
				if nv == old {
					nv = array.TruncateBits(dt, old+1)
				}
				cur.SetBits(i, nv)
			}
		}
		g[v] = delta.Gather(cur, idx)
	}
	return g
}

// constantShare is the share of sample positions at which every version
// of g holds version 0's cell.
func constantShare(g [][]int64) float64 {
	same := 0
	for p, v0 := range g[0] {
		if !slices.ContainsFunc(g[1:], func(gi []int64) bool { return gi[p] != v0 }) {
			same++
		}
	}
	return float64(same) / float64(len(g[0]))
}

// TestFromSamplesMatchesOracle pins FromSamples, which drops the sample
// positions no version changes and prices the pairs on a pool, to the
// per-pair oracle over every sampled cell: for 1-, 2-, 4- and 8-byte
// dtypes, 1, 2 and 48 versions, none, about 80 % and all of the
// positions constant, at 1 and 4 workers, and for every §IV-E batch of
// 8 of the 48 versions.
func TestFromSamplesMatchesOracle(t *testing.T) {
	const cells, sample = 8192, 4096
	check := func(name string, dt array.DataType, g [][]int64) {
		t.Helper()
		want := oracleFromSamples(dt, cells, g)
		for _, workers := range []int{1, 4} {
			got := FromSamples(dt, cells, g, workers)
			if !slices.EqualFunc(got.Cost, want.Cost, slices.Equal) {
				t.Errorf("%s at %d workers: matrix differs from the oracle", name, workers)
			}
		}
	}
	for _, dt := range []array.DataType{array.Int8, array.UInt16, array.Int32, array.Float64} {
		for _, n := range []int{1, 2, 48} {
			for _, constant := range []float64{0, 0.8, 1} {
				name := fmt.Sprintf("%v n=%d constant=%.1f", dt, n, constant)
				g := sampledSeries(dt, n, cells, sample, constant, int64(n)*7+int64(dt))
				if share := constantShare(g); n > 1 && math.Abs(share-constant) > 0.05 {
					t.Fatalf("%s: %.3f of the positions constant", name, share)
				}
				check(name, dt, g)
				if n < 48 {
					continue
				}
				for lo := 0; lo < n; lo += 8 {
					check(fmt.Sprintf("%s batch [%d,%d)", name, lo, lo+8), dt, g[lo:lo+8])
				}
			}
		}
	}
}

// driftSamples gathers 48 versions of a 512² int32 array at one draw of
// 4096 cells, in the shape the repo benchmark's fixtures take: a smooth
// field and, per version, small updates to about 3 % of the cells in 64
// patches that each drift up to 4 cells per axis, so that over the 48
// versions about 80 % of the sampled positions never change. noise
// instead redraws every cell in every version.
func driftSamples(noise bool) [][]int64 {
	const n, side, patches, drift = 48, 512, 64, 4
	patch := int(math.Sqrt(0.03 * side * side / patches))
	rng := rand.New(rand.NewSource(1))
	cur := array.MustDense(array.Int32, []int64{side, side})
	for y := range side {
		for x := range side {
			f := 8e8*math.Sin(3*math.Pi*float64(x)/side)*math.Cos(2*math.Pi*float64(y)/side) + float64(rng.Intn(8))
			cur.SetBits(int64(y*side+x), int64(int32(f)))
		}
	}
	px, py := make([]int, patches), make([]int, patches)
	for p := range px {
		px[p], py[p] = rng.Intn(side-patch), rng.Intn(side-patch)
	}
	idx := Draw(side*side, 4096, 0)
	g := make([][]int64, n)
	for v := range n {
		switch {
		case v == 0:
		case noise:
			for i := range cur.NumCells() {
				cur.SetBits(i, array.TruncateBits(array.Int32, rng.Int63()))
			}
		default:
			for p := range px {
				px[p] = min(max(px[p]+rng.Intn(2*drift+1)-drift, 0), side-patch)
				py[p] = min(max(py[p]+rng.Intn(2*drift+1)-drift, 0), side-patch)
				for y := py[p]; y < py[p]+patch; y++ {
					for x := px[p]; x < px[p]+patch; x++ {
						c := int64(y*side + x)
						cur.SetBits(c, array.TruncateBits(array.Int32, cur.Bits(c)+int64(rng.Intn(61)-30)))
					}
				}
			}
		}
		g[v] = delta.Gather(cur, idx)
	}
	return g
}

// matrixSink keeps a benchmarked matrix live.
var matrixSink *Matrix

// BenchmarkFromSamples prices the sampled matrix of 48 versions of a 512²
// int32 array from 4096 gathered cells, on GOMAXPROCS workers as Compute
// does: drift is the repo benchmark's patch-drift series, most of whose
// sampled positions never change; noise changes every one.
func BenchmarkFromSamples(b *testing.B) {
	for _, arm := range []struct {
		name  string
		noise bool
	}{{"drift", false}, {"noise", true}} {
		g := driftSamples(arm.noise)
		b.Run(arm.name, func(b *testing.B) {
			b.ReportMetric(constantShare(g), "constant")
			for range b.N {
				matrixSink = FromSamples(array.Int32, 512*512, g, runtime.GOMAXPROCS(0))
			}
		})
	}
}
