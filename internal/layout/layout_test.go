package layout

import (
	"math/rand"
	"testing"

	"arrayvers/internal/matmat"
)

// randomMatrix builds a random symmetric materialization matrix.
func randomMatrix(n int, seed int64, cheapDeltas bool) *matmat.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := matmat.New(n)
	for i := 0; i < n; i++ {
		m.Cost[i][i] = int64(rng.Intn(900) + 100) // 100..999
	}
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			var v int64
			if cheapDeltas {
				v = int64(rng.Intn(90) + 10) // always < any materialization
			} else {
				v = int64(rng.Intn(1500) + 10) // sometimes beats materialization
			}
			m.Cost[i][j] = v
			m.Cost[j][i] = v
		}
	}
	return m
}

func TestFig3ValidityExamples(t *testing.T) {
	// Fig. 3 left: three versions in a delta cycle V1→V2→V3→V1 — invalid.
	cyclic := Layout{Parent: []int{1, 2, 0}}
	if cyclic.IsValid() {
		t.Fatal("delta cycle accepted (Fig. 3 left)")
	}
	// Fig. 3 right: V1→V2→V3 with V3 materialized — valid.
	chain := Layout{Parent: []int{1, 2, 2}}
	if !chain.IsValid() {
		t.Fatal("valid chain rejected (Fig. 3 right)")
	}
}

// TestReparentableMatchesIsValid: on random valid layouts (forests
// grown in a random order, each version under itself or an earlier
// one), reparentable agrees with IsValid on every single re-parent.
func TestReparentableMatchesIsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(12)
		l := NewLayout(n)
		order := rng.Perm(n)
		for k, v := range order {
			if k > 0 && rng.Intn(4) > 0 {
				l.Parent[v] = order[rng.Intn(k)]
			}
		}
		if !l.IsValid() {
			t.Fatalf("generated an invalid layout %v", l.Parent)
		}
		for i := 0; i < n; i++ {
			for p := 0; p < n; p++ {
				trial := l.Clone()
				trial.Parent[i] = p
				if got, want := reparentable(l, i, p), trial.IsValid(); got != want {
					t.Fatalf("layout %v, version %d under %d: reparentable %v, IsValid %v", l.Parent, i, p, got, want)
				}
			}
		}
	}
}

func TestObservation1EdgeCount(t *testing.T) {
	// a layout of n versions always has n arcs — structurally guaranteed
	// by the Parent representation; check Roots+deltas partition.
	l := Layout{Parent: []int{0, 0, 1, 2, 4}}
	if !l.IsValid() {
		t.Fatal("valid forest rejected")
	}
	roots := l.Roots()
	if len(roots) != 2 || roots[0] != 0 || roots[1] != 4 {
		t.Fatalf("roots = %v", roots)
	}
}

func TestValidateErrors(t *testing.T) {
	if (Layout{Parent: nil}).IsValid() {
		t.Error("empty layout accepted")
	}
	if (Layout{Parent: []int{5}}).IsValid() {
		t.Error("out-of-range parent accepted")
	}
	if (Layout{Parent: []int{1, 0}}).IsValid() {
		t.Error("2-cycle accepted")
	}
	if (Layout{Parent: []int{1, 2, 3, 1}}).IsValid() {
		t.Error("3-cycle with tail accepted")
	}
}

func TestPathToRoot(t *testing.T) {
	l := Layout{Parent: []int{1, 2, 2, 0}}
	path := l.PathToRoot(3)
	want := []int{3, 0, 1, 2}
	if len(path) != len(want) {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
	if p := l.PathToRoot(2); len(p) != 1 || p[0] != 2 {
		t.Fatalf("root path = %v", p)
	}
}

func TestCoverSet(t *testing.T) {
	l := Layout{Parent: []int{1, 2, 2, 0}}
	cover := l.CoverSet([]int{3, 0})
	if len(cover) != 4 {
		t.Fatalf("cover = %v", cover)
	}
	cover = l.CoverSet([]int{2})
	if len(cover) != 1 || cover[0] != 2 {
		t.Fatalf("cover = %v", cover)
	}
}

func TestAlgorithm1CheapDeltasSingleRoot(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		mm := randomMatrix(6, seed, true)
		l := Algorithm1(mm)
		if !l.IsValid() {
			t.Fatalf("seed %d: invalid layout", seed)
		}
		if len(l.Roots()) != 1 {
			t.Fatalf("seed %d: %d roots, want 1", seed, len(l.Roots()))
		}
		// root must be the cheapest materialization
		root := l.Roots()[0]
		for i := 0; i < mm.N; i++ {
			if mm.Cost[i][i] < mm.Cost[root][root] {
				t.Fatalf("seed %d: root %d not cheapest", seed, root)
			}
		}
	}
}

func TestAlgorithm1OptimalWhenDeltasCheap(t *testing.T) {
	// When every delta is cheaper than every materialization, Algorithm 1
	// is optimal (§IV-C); verify against exhaustive enumeration.
	for seed := int64(0); seed < 10; seed++ {
		mm := randomMatrix(5, seed, true)
		if !mm.DeltasAlwaysCheaper() {
			continue
		}
		got := Algorithm1(mm).StorageCost(mm)
		want := Exhaustive(mm.N, func(l Layout) int64 { return l.StorageCost(mm) }).StorageCost(mm)
		if got != want {
			t.Fatalf("seed %d: algorithm1 cost %d, optimal %d", seed, got, want)
		}
	}
}

func TestOptimalMatchesExhaustive(t *testing.T) {
	// the augmented-MST optimizer must equal brute force on arbitrary
	// matrices, including ones where materialization beats some deltas.
	for seed := int64(0); seed < 15; seed++ {
		for _, cheap := range []bool{true, false} {
			mm := randomMatrix(5, seed, cheap)
			opt := Optimal(mm)
			if !opt.IsValid() {
				t.Fatalf("seed %d: invalid optimal layout", seed)
			}
			got := opt.StorageCost(mm)
			want := Exhaustive(mm.N, func(l Layout) int64 { return l.StorageCost(mm) }).StorageCost(mm)
			if got != want {
				t.Fatalf("seed %d cheap=%v: optimal cost %d, exhaustive %d", seed, cheap, got, want)
			}
		}
	}
}

func TestAlgorithm2ImprovesOnAlgorithm1(t *testing.T) {
	improvedSomewhere := false
	for seed := int64(0); seed < 30; seed++ {
		mm := randomMatrix(6, seed, false)
		l1 := Algorithm1(mm)
		l2 := Algorithm2(mm)
		if !l2.IsValid() {
			t.Fatalf("seed %d: algorithm2 produced invalid layout", seed)
		}
		c1, c2 := l1.StorageCost(mm), l2.StorageCost(mm)
		if c2 > c1 {
			t.Fatalf("seed %d: algorithm2 cost %d worse than algorithm1 %d", seed, c2, c1)
		}
		if c2 < c1 {
			improvedSomewhere = true
		}
		// algorithm2 can't beat the true optimum
		if opt := Optimal(mm).StorageCost(mm); c2 < opt {
			t.Fatalf("seed %d: algorithm2 cost %d below optimum %d", seed, c2, opt)
		}
	}
	if !improvedSomewhere {
		t.Error("algorithm2 never split a tree across 30 random matrices")
	}
}

func TestLinearChainShape(t *testing.T) {
	l := LinearChain(5)
	if !l.IsValid() {
		t.Fatal("linear chain invalid")
	}
	if !l.IsLinearChain() {
		t.Fatal("linear chain not recognized")
	}
	if !l.Materialized(4) {
		t.Fatal("head not materialized")
	}
	for i := 0; i < 4; i++ {
		if l.Parent[i] != i+1 {
			t.Fatalf("parent[%d] = %d", i, l.Parent[i])
		}
	}
	if !LinearChain(1).IsValid() {
		t.Fatal("singleton chain invalid")
	}
}

func TestIsLinearChainNegative(t *testing.T) {
	star := Layout{Parent: []int{2, 2, 2}}
	if star.IsLinearChain() {
		t.Error("star recognized as chain")
	}
	forest := Layout{Parent: []int{0, 1, 1}}
	if forest.IsLinearChain() {
		t.Error("two-root forest recognized as chain")
	}
}

func TestOptimalDegeneratesToLinearChain(t *testing.T) {
	// E9: when consecutive versions are most similar (delta cost grows
	// with distance), the optimal layout is a linear chain (§V-D).
	n := 8
	mm := matmat.New(n)
	for i := 0; i < n; i++ {
		mm.Cost[i][i] = 1000
		for j := 0; j < n; j++ {
			if i != j {
				d := i - j
				if d < 0 {
					d = -d
				}
				mm.Cost[i][j] = int64(10 * d)
			}
		}
	}
	l := Optimal(mm)
	if !l.IsLinearChain() {
		t.Fatalf("optimal layout on smooth data is not a linear chain: %v", l.Parent)
	}
	if l.StorageCost(mm) != 1000+int64(10*(n-1)) {
		t.Fatalf("cost = %d", l.StorageCost(mm))
	}
}

func TestOptimalFindsPeriodicStructure(t *testing.T) {
	// E8: periodic data A1,A2,A3,A1,A2,A3... where only same-phase
	// versions delta well. Optimal layout must link same-phase versions,
	// using ~p materializations.
	p, reps := 3, 4
	n := p * reps
	mm := matmat.New(n)
	for i := 0; i < n; i++ {
		mm.Cost[i][i] = 800
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if i%p == j%p {
				mm.Cost[i][j] = 5 // same phase: deltas tiny
			} else {
				mm.Cost[i][j] = 3000 // cross phase: worse than materializing
			}
		}
	}
	l := Optimal(mm)
	if !l.IsValid() {
		t.Fatal("invalid layout")
	}
	wantCost := int64(p)*800 + int64(n-p)*5
	if got := l.StorageCost(mm); got != wantCost {
		t.Fatalf("periodic optimal cost %d, want %d", got, wantCost)
	}
	if len(l.Roots()) != p {
		t.Fatalf("periodic layout has %d roots, want %d", len(l.Roots()), p)
	}
	// linear chain must be far worse
	if lc := LinearChain(n).StorageCost(mm); lc <= wantCost*2 {
		t.Fatalf("linear chain cost %d unexpectedly close to optimal %d", lc, wantCost)
	}
}

func TestHeadBiasedLayout(t *testing.T) {
	mm := randomMatrix(6, 3, true)
	l := HeadBiasedLayout(mm)
	if !l.IsValid() {
		t.Fatal("invalid head-biased layout")
	}
	if !l.Materialized(5) {
		t.Fatal("head version not materialized")
	}
	if len(l.Roots()) != 1 {
		t.Fatalf("roots = %v", l.Roots())
	}
}

func TestIOCost(t *testing.T) {
	mm := matmat.New(3)
	for i := 0; i < 3; i++ {
		mm.Cost[i][i] = 100
		for j := 0; j < 3; j++ {
			if i != j {
				mm.Cost[i][j] = 10
			}
		}
	}
	chain := Layout{Parent: []int{1, 2, 2}}
	// query on v2 (materialized): reads 100 bytes
	if c := IOCost(chain, mm, []Query{Snapshot(2, 1)}); c != 100 {
		t.Fatalf("snapshot head cost = %v", c)
	}
	// query on v0: reads delta(0)+delta(1)+mat(2) = 10+10+100
	if c := IOCost(chain, mm, []Query{Snapshot(0, 1)}); c != 120 {
		t.Fatalf("snapshot tail cost = %v", c)
	}
	// range over all three = same cover
	if c := IOCost(chain, mm, []Query{Range(0, 2, 1)}); c != 120 {
		t.Fatalf("range cost = %v", c)
	}
	// weights scale linearly
	if c := IOCost(chain, mm, []Query{Snapshot(2, 2.5)}); c != 250 {
		t.Fatalf("weighted cost = %v", c)
	}
}

func TestWorkloadAwareBeatsSpaceOptimalOnHeadWorkload(t *testing.T) {
	// A workload hammering the newest version should cause the
	// workload-aware layout to materialize it, beating the space-optimal
	// layout's I/O cost (the §V-D experiment's shape).
	for seed := int64(0); seed < 10; seed++ {
		mm := randomMatrix(7, seed, true)
		wl := []Query{Snapshot(6, 0.9), Range(0, 6, 0.05)}
		spaceOpt := Optimal(mm)
		aware := WorkloadAware(mm, wl)
		if !aware.IsValid() {
			t.Fatalf("seed %d: invalid workload-aware layout", seed)
		}
		cs, ca := IOCost(spaceOpt, mm, wl), IOCost(aware, mm, wl)
		if ca > cs {
			t.Fatalf("seed %d: workload-aware I/O %v worse than space-optimal %v", seed, ca, cs)
		}
	}
}

func TestWorkloadAwareNearExhaustive(t *testing.T) {
	// On tiny instances the heuristic should come close to the I/O
	// optimum (within 25%).
	for seed := int64(0); seed < 6; seed++ {
		mm := randomMatrix(5, seed, false)
		wl := []Query{Snapshot(4, 0.5), Range(1, 3, 0.3), Snapshot(0, 0.2)}
		opt := WorkloadExhaustive(mm, wl)
		aware := WorkloadAware(mm, wl)
		co, ca := IOCost(opt, mm, wl), IOCost(aware, mm, wl)
		if ca > co*1.25 {
			t.Fatalf("seed %d: heuristic %v vs optimal %v", seed, ca, co)
		}
	}
}

func TestExhaustiveProducesValidLayouts(t *testing.T) {
	mm := randomMatrix(4, 1, false)
	l := Exhaustive(mm.N, func(l Layout) int64 { return l.StorageCost(mm) })
	if !l.IsValid() {
		t.Fatal("exhaustive returned invalid layout")
	}
}

func TestSingleVersionLayouts(t *testing.T) {
	mm := matmat.New(1)
	mm.Cost[0][0] = 50
	for _, l := range []Layout{Algorithm1(mm), Algorithm2(mm), Optimal(mm), HeadBiasedLayout(mm)} {
		if !l.IsValid() || !l.Materialized(0) {
			t.Fatal("single-version layout must materialize the version")
		}
		if l.StorageCost(mm) != 50 {
			t.Fatal("wrong cost")
		}
	}
}

func TestMatrixValidate(t *testing.T) {
	mm := randomMatrix(4, 2, true)
	if err := mm.Validate(); err != nil {
		t.Fatal(err)
	}
	mm.Cost[1][2] = 999999 // break symmetry
	if err := mm.Validate(); err == nil {
		t.Error("asymmetric matrix accepted")
	}
	mm.Cost[1][2] = mm.Cost[2][1]
	mm.Cost[0][0] = -1
	if err := mm.Validate(); err == nil {
		t.Error("negative cost accepted")
	}
}

func BenchmarkOptimalLayout40Versions(b *testing.B) {
	mm := randomMatrix(40, 1, false)
	for i := 0; i < b.N; i++ {
		Optimal(mm)
	}
}

func BenchmarkAlgorithm2Layout40Versions(b *testing.B) {
	mm := randomMatrix(40, 1, false)
	for i := 0; i < b.N; i++ {
		Algorithm2(mm)
	}
}

func TestSegmentHeuristicOverlappingRanges(t *testing.T) {
	// the §IV-D setting: overlapping range queries over a version axis
	for seed := int64(0); seed < 8; seed++ {
		mm := randomMatrix(12, seed, true)
		wl := []Query{Range(0, 5, 0.5), Range(4, 9, 0.3), Range(8, 11, 0.2)}
		l := SegmentHeuristic(mm, wl)
		if !l.IsValid() {
			t.Fatalf("seed %d: invalid segment layout", seed)
		}
		// must not be worse than the plain space-optimal layout on I/O
		spaceOpt := Optimal(mm)
		if IOCost(l, mm, wl) > IOCost(spaceOpt, mm, wl) {
			t.Fatalf("seed %d: segment heuristic I/O %v worse than space-optimal %v",
				seed, IOCost(l, mm, wl), IOCost(spaceOpt, mm, wl))
		}
	}
}

func TestSegmentHeuristicSingleQueryIsOptimalTree(t *testing.T) {
	// with one query covering everything there is a single segment, so
	// the result equals the space-optimal layout
	mm := randomMatrix(7, 3, true)
	wl := []Query{Range(0, 6, 1)}
	l := SegmentHeuristic(mm, wl)
	if l.StorageCost(mm) != Optimal(mm).StorageCost(mm) {
		t.Fatalf("single-segment cost %d != optimal %d", l.StorageCost(mm), Optimal(mm).StorageCost(mm))
	}
}

func TestSegmentHeuristicEmptyWorkload(t *testing.T) {
	mm := randomMatrix(5, 4, false)
	l := SegmentHeuristic(mm, nil)
	if !l.IsValid() {
		t.Fatal("invalid layout for empty workload")
	}
}
