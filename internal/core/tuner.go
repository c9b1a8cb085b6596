package core

import (
	"fmt"
	"time"

	"arrayvers/internal/layout"
)

// Workload-aware reorganization as §IV-D states it: the caller knows
// its query workload a priori and hands it to Tune, which prices the
// layout on disk against the PolicyWorkloadAware candidate with one
// sampled materialization matrix (§IV-A) and rewrites only when the
// projected savings reach tuneMinSavings. The rewrite is a plain
// Reorganize, so it rides the crash-safe generation-commit protocol and
// never blocks readers (see DESIGN.md "Workload-aware reorganization
// (§IV-D)").

// tuneMinSavings is Tune's no-regression guard: the fractional
// projected I/O-cost reduction a workload-aware re-layout must reach
// before anything is rewritten, so a workload the current layout
// already serves well never triggers a reorganization.
const tuneMinSavings = 0.10

// TuneReport describes one Tune pass over one array.
type TuneReport struct {
	Array string `json:"array"`
	// Queries is the number of workload queries the pass priced.
	Queries int `json:"queries"`
	// CurrentCost and ProjectedCost are the workload I/O costs (§IV-D,
	// CostΛ) of the layout on disk and the workload-aware candidate;
	// Savings is their fractional difference.
	CurrentCost   float64 `json:"currentCost,omitempty"`
	ProjectedCost float64 `json:"projectedCost,omitempty"`
	Savings       float64 `json:"savings,omitempty"`
	// MinSavings is the threshold the pass applied.
	MinSavings float64 `json:"minSavings"`
	// Reorganized reports whether the pass committed a re-layout;
	// otherwise Reason says why not.
	Reorganized bool   `json:"reorganized"`
	Reason      string `json:"reason,omitempty"`
}

// Tune prices the named array's layout on disk against the
// workload-aware one for the given workload (query version values are
// version IDs) and reorganizes with PolicyWorkloadAware when the
// projected savings reach 10%. The workload is validated as for
// Reorganize: it must be non-empty, every query must name at least one
// live version, and every weight must be finite and positive.
//
// The pass walks every chunk column once, through an uncached snapshot
// that neither evicts nor repopulates the store-wide chunk LRU, prices
// both layouts from the one sampled matrix a default Reorganize plans
// from (matrixSample cells per version, gathered as the walk passes
// each version; no plane is assembled), and hands the chosen layout to
// the rewrite, which decodes only the columns whose bases it changes.
// If the live versions change in between, or the array is dropped and
// recreated, Reorganize replans from live metadata, so a plan never
// lays out versions it did not sample.
func (s *Store) Tune(name string, wl []layout.Query) (rep TuneReport, err error) {
	defer func(t0 time.Time) {
		s.prof.tunePass.Observe(time.Since(t0).Seconds())
	}(time.Now())
	rep = TuneReport{Array: name, Queries: len(wl), MinSavings: tuneMinSavings}
	if err := validateWorkload(wl); err != nil {
		return rep, err
	}
	v, release, err := s.snapshotUncached(name)
	if err != nil {
		return rep, err
	}
	wlIdx, err := remapWorkload(wl, v.ids)
	if err != nil {
		release()
		return rep, err
	}
	if len(v.ids) < 2 {
		release()
		rep.Reason = "fewer than two live versions"
		return rep, nil
	}
	ids := v.ids
	cur := currentLayoutOf(v, ids)
	mm, err := s.planMatrix(v)
	release()
	if err != nil {
		return rep, err
	}

	chosen := layout.WorkloadAware(mm, wlIdx)
	rep.CurrentCost = layout.IOCost(cur, mm, wlIdx)
	rep.ProjectedCost = layout.IOCost(chosen, mm, wlIdx)
	if rep.CurrentCost <= 0 {
		rep.Reason = "current layout has zero workload cost"
		return rep, nil
	}
	rep.Savings = 1 - rep.ProjectedCost/rep.CurrentCost
	if rep.Savings < tuneMinSavings {
		rep.Reason = fmt.Sprintf("projected savings %.1f%% below threshold %.1f%%",
			rep.Savings*100, tuneMinSavings*100)
		return rep, nil
	}
	err = s.Reorganize(name, ReorganizeOptions{
		Policy:   PolicyWorkloadAware,
		Workload: wl,
		plan:     &rewritePlan{st: v.st, ids: ids, layout: chosen},
	})
	if err != nil {
		return rep, err
	}
	rep.Reorganized = true
	return rep, nil
}

// currentLayoutOf derives the layout actually on disk from a metadata
// snapshot: a version's parent is the base most of its chunks are
// delta'ed against (self when most chunks are materialized). A base no
// longer live reads as materialized, which only overestimates the
// current cost of an already-degenerate layout.
func currentLayoutOf(v *readView, ids []int) layout.Layout {
	pos := indexOf(ids)
	l := layout.NewLayout(len(ids))
	for i, id := range ids {
		vm, err := v.version(id)
		if err != nil {
			continue
		}
		counts := map[int]int{}
		for _, chunks := range vm.Chunks {
			for _, e := range chunks {
				counts[e.Base]++
			}
		}
		best, bestN := -1, -1
		for b, n := range counts {
			if n > bestN || (n == bestN && b > best) {
				best, bestN = b, n
			}
		}
		if p, ok := pos[best]; ok && best >= 0 && p != i {
			l.Parent[i] = p
		}
	}
	if !l.IsValid() {
		// a cyclic derivation can only come from metadata we misread;
		// treat everything as materialized (maximally pessimistic about
		// the candidate, so Tune stays conservative)
		return layout.NewLayout(len(ids))
	}
	return l
}
