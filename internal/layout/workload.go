package layout

import (
	"arrayvers/internal/matmat"
)

// Workload-aware layouts (§IV-D): given a priori knowledge of the query
// workload, minimize total I/O — the bytes of every version that must be
// read to answer the queries, CostΛ(q) = Σ_{Vi ∈ VΛ(q)} SizeΛ(Vi) — rather
// than bytes on disk. "Layouts yielding low I/O costs will typically
// materialize versions that are frequently accessed."

// Query is one workload element: the versions it accesses directly,
// weighted by its frequency. A snapshot query accesses one version; a
// range query accesses a contiguous run.
type Query struct {
	Versions []int
	Weight   float64
}

// Snapshot builds a single-version query.
func Snapshot(v int, w float64) Query { return Query{Versions: []int{v}, Weight: w} }

// Range builds a query over versions lo..hi inclusive.
func Range(lo, hi int, w float64) Query {
	var vs []int
	for v := lo; v <= hi; v++ {
		vs = append(vs, v)
	}
	return Query{Versions: vs, Weight: w}
}

// IOCost evaluates the paper's workload cost of a layout: the weighted
// sum over queries of the total encoded size of every version in the
// query's cover set VΛ(q).
func IOCost(l Layout, mm *matmat.Matrix, workload []Query) float64 {
	total := 0.0
	for _, q := range workload {
		for _, v := range l.CoverSet(q.Versions) {
			total += q.Weight * float64(l.EncodedSize(mm, v))
		}
	}
	return total
}

// WorkloadAware computes a layout with low I/O cost for the given
// workload. It implements the paper's divide-and-conquer heuristic in a
// local-search form: start from the space-optimal layout plus a variant
// that materializes every queried segment's hot spots, then greedily
// reassign single versions (to materialization or a different delta
// parent) while the workload cost improves. The search space visited is
// exactly the set of "interesting" layouts §IV-D enumerates — segment
// combinations arise as sequences of single-parent moves.
func WorkloadAware(mm *matmat.Matrix, workload []Query) Layout {
	best := Algorithm2(mm)
	bestCost := IOCost(best, mm, workload)

	// seed 2: materialize the most frequently accessed version of every
	// query, then re-run greedy improvement from there too.
	seed := Algorithm2(mm)
	freq := accessFrequencies(mm.N, workload)
	hottest := 0
	for i := range freq {
		if freq[i] > freq[hottest] {
			hottest = i
		}
	}
	if !seed.Materialized(hottest) {
		seed.Parent[hottest] = hottest
	}
	if seed.IsValid() {
		if c := IOCost(seed, mm, workload); c < bestCost {
			best, bestCost = seed, c
		}
	}
	// seed 3: the §IV-D segment divide-and-conquer construction.
	if seg := SegmentHeuristic(mm, workload); seg.IsValid() {
		if c := IOCost(seg, mm, workload); c < bestCost {
			best, bestCost = seg, c
		}
	}

	best = greedyImprove(best, mm, workload)
	return best
}

// greedyImprove hill-climbs over single-version parent reassignments.
// Every layout it keeps is valid, so a trial re-parent of i under p is
// valid exactly when p's walk to its root does not pass through i
// (reparentable), which costs no allocation.
func greedyImprove(l Layout, mm *matmat.Matrix, workload []Query) Layout {
	n := mm.N
	cur := l.Clone()
	curCost := IOCost(cur, mm, workload)
	for pass := 0; pass < 4*n; pass++ {
		improved := false
		for i := 0; i < n; i++ {
			orig := cur.Parent[i]
			bestP, bestC := orig, curCost
			for p := 0; p < n; p++ {
				if p == orig || !reparentable(cur, i, p) {
					continue
				}
				cur.Parent[i] = p
				if c := IOCost(cur, mm, workload); c < bestC {
					bestP, bestC = p, c
				}
			}
			cur.Parent[i] = bestP
			if bestP != orig {
				curCost = bestC
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return cur
}

// reparentable reports whether l stays valid with version i re-parented
// under p, given that l is valid: p == i materializes i, and any other
// p is valid unless p's walk to its root passes through i, which the
// new edge would close into a cycle. The walk stops at i, so l.Parent[i]
// is never read; a walk longer than n steps (an invalid l) reports
// false.
func reparentable(l Layout, i, p int) bool {
	for steps := 0; steps <= len(l.Parent); steps++ {
		if p == i {
			return steps == 0
		}
		if l.Parent[p] == p {
			return true
		}
		p = l.Parent[p]
	}
	return false
}

// WorkloadExhaustive finds the I/O-optimal layout by enumerating all
// valid layouts (via the augmented-graph Prüfer bijection). Exponential;
// for tests and tiny version counts only.
func WorkloadExhaustive(mm *matmat.Matrix, workload []Query) Layout {
	return Exhaustive(mm.N, func(l Layout) int64 {
		// scale to preserve float ordering in an int64 comparator
		return int64(IOCost(l, mm, workload) * 16)
	})
}

// accessFrequencies sums query weights per version.
func accessFrequencies(n int, workload []Query) []float64 {
	freq := make([]float64, n)
	for _, q := range workload {
		for _, v := range q.Versions {
			if v >= 0 && v < n {
				freq[v] += q.Weight
			}
		}
	}
	return freq
}

// HeadBiasedLayout implements the §IV-E special case for workloads
// heavily biased towards the latest version: materialize the newest
// version and store all earlier versions in the most compact way
// possible given that choice (a constrained MST where version n-1 is the
// single root).
func HeadBiasedLayout(mm *matmat.Matrix) Layout {
	n := mm.N
	l := NewLayout(n)
	if n == 1 {
		return l
	}
	parentInTree := primMST(n, func(i, j int) int64 { return mm.Cost[i][j] })
	orientFromRoots(parentInTree, []int{n - 1}, l.Parent)
	return l
}

// SegmentHeuristic is the paper's divide-and-conquer construction for
// workloads of overlapping range queries (§IV-D): the version axis is
// partitioned into segments at every query boundary; each segment is
// first stored in its most compact form (a spanning tree over the
// segment with one materialization), and adjacent segments are then
// combined — a segment's root is re-encoded as a delta against its
// neighbor when that lowers the workload's I/O cost. Following the
// paper's enumeration of "interesting" layouts, the fully-combined
// most-compact layout (its case iv, best "where materializations are
// very expensive") competes as a candidate, and the cheapest on the
// workload wins.
func SegmentHeuristic(mm *matmat.Matrix, workload []Query) Layout {
	seg := segmentedLayout(mm, workload)
	combined := Optimal(mm) // §IV-D case (iv): V1 ∪ V2 stored most compactly
	if IOCost(combined, mm, workload) < IOCost(seg, mm, workload) {
		return combined
	}
	return seg
}

func segmentedLayout(mm *matmat.Matrix, workload []Query) Layout {
	n := mm.N
	// 1. delineate segments at query boundaries
	cut := make([]bool, n+1)
	cut[0], cut[n] = true, true
	for _, q := range workload {
		if len(q.Versions) == 0 {
			continue
		}
		lo, hi := q.Versions[0], q.Versions[0]
		for _, v := range q.Versions {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if lo >= 0 && lo <= n {
			cut[lo] = true
		}
		if hi+1 >= 0 && hi+1 <= n {
			cut[hi+1] = true
		}
	}
	// 2. store each segment most compactly in isolation
	l := NewLayout(n)
	type segment struct{ lo, hi int } // [lo, hi)
	var segs []segment
	start := 0
	for end := 1; end <= n; end++ {
		if !cut[end] {
			continue
		}
		segs = append(segs, segment{start, end})
		applySegmentOptimal(mm, l.Parent, start, end)
		start = end
	}
	// 3. combine adjacent segments where re-encoding a segment root as a
	// delta against the neighboring segment lowers the workload cost
	cost := IOCost(l, mm, workload)
	for i := 1; i < len(segs); i++ {
		seg := segs[i]
		for r := seg.lo; r < seg.hi; r++ {
			if !l.Materialized(r) {
				continue
			}
			// candidate: hang this root off the last version of the
			// previous segment
			prevEnd := segs[i-1].hi - 1
			trial := l.Clone()
			trial.Parent[r] = prevEnd
			if !trial.IsValid() {
				continue
			}
			if c := IOCost(trial, mm, workload); c < cost {
				l, cost = trial, c
			}
		}
	}
	return l
}

// applySegmentOptimal writes the space-optimal layout of versions
// [lo, hi) into parent, with all delta bases inside the segment.
func applySegmentOptimal(mm *matmat.Matrix, parent []int, lo, hi int) {
	k := hi - lo
	sub := matmat.New(k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			sub.Cost[i][j] = mm.Cost[lo+i][lo+j]
		}
	}
	subLayout := Optimal(sub)
	for i := 0; i < k; i++ {
		if subLayout.Parent[i] == i {
			parent[lo+i] = lo + i
		} else {
			parent[lo+i] = lo + subLayout.Parent[i]
		}
	}
}
