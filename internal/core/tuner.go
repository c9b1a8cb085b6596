package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"arrayvers/internal/layout"
	"arrayvers/internal/matmat"
)

// The adaptive reorganizer (closing the loop on §IV-D): the select path
// records every access into the workload histogram (workload.go); the
// tuner periodically snapshots the histogram, computes the
// workload-aware layout off-lock, estimates the projected I/O cost
// against the current layout's cost using the materialization matrix,
// and triggers a Reorganize only when the projected savings clear
// AutoTuneOptions.MinSavings. The rewrite rides the existing
// generation-commit protocol, so tuning is crash-safe and never blocks
// readers (see DESIGN.md "Adaptive reorganization").

// TuneReport describes one tuner pass over one array.
type TuneReport struct {
	Array string `json:"array"`
	// Ops is the total recorded (decayed) access weight considered;
	// Patterns is the number of distinct access patterns.
	Ops      float64 `json:"ops"`
	Patterns int     `json:"patterns"`
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

// Tune runs one adaptive-tuner pass over the named array, regardless of
// whether the background loop is enabled: snapshot the recorded
// workload, estimate the I/O cost of the current layout vs. the
// workload-aware one, and reorganize when the projected savings reach
// AutoTune.MinSavings. The pass decays the array's workload histogram,
// so repeated passes track recent traffic.
func (s *Store) Tune(name string) (rep TuneReport, err error) {
	defer func(t0 time.Time) {
		s.prof.tunePass.Observe(time.Since(t0).Seconds())
	}(time.Now())
	at := s.opts.AutoTune.withDefaults()
	rep = TuneReport{Array: name, MinSavings: at.MinSavings}

	s.mu.RLock()
	st, ok := s.arrays[name]
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return rep, ErrClosed
	}
	if !ok {
		return rep, fmt.Errorf("core: no array %q", name)
	}

	s.tunePasses.Add(1)
	// decay only on passes that actually estimated: a transient failure
	// must not drain a histogram it never acted on, and trickle traffic
	// below MinOps must be allowed to accumulate across intervals
	estimated := false
	defer func() {
		if err == nil && estimated {
			st.workload.scale(at.Decay)
		}
	}()

	wl, total := st.workload.queries()
	rep.Ops = total
	rep.Patterns = len(wl)
	if total < at.MinOps {
		rep.Reason = fmt.Sprintf("insufficient recorded workload (%.1f < %.1f ops)", total, at.MinOps)
		return rep, nil
	}

	// One metadata snapshot feeds everything: the candidate layout, the
	// current layout, and the cost matrix, so the two costs are
	// comparable. All decoding runs off-lock against the snapshot and
	// bypasses the store-wide LRU — an estimation sweep must not evict
	// the clients' hot working set or skew the hit-rate counters. The
	// decoded inputs are cached per mutation sequence, so repeated
	// passes over an unmutated array skip the decode entirely and only
	// re-evaluate costs against the fresh histogram.
	v, release, err := s.snapshotUncached(name)
	if err != nil {
		return rep, err
	}
	if len(v.ids) < 2 {
		release()
		rep.Reason = "fewer than two live versions"
		return rep, nil
	}
	est := v.st.tuneEst.Load()
	var planes [][]Plane // decoded this pass (nil on an estimate-cache hit)
	if est == nil || est.seq != v.seq {
		var ids []int
		ids, planes, err = s.loadPlanesView(v)
		if err != nil {
			release()
			return rep, err
		}
		var mm *matmat.Matrix
		mm, err = s.buildMatrix(v.st.SparseRep, len(v.st.Schema.Attrs), planes, at.MatrixSample)
		if err != nil {
			release()
			return rep, err
		}
		est = &tuneEstimate{seq: v.seq, ids: ids, mm: mm, cur: currentLayoutOf(v, ids)}
		v.st.tuneEst.Store(est)
	}
	release()
	estimated = true

	// queries may reference versions deleted since they were recorded
	wl = FilterWorkload(wl, est.ids)
	if len(wl) == 0 {
		rep.Reason = "recorded workload references no live versions"
		return rep, nil
	}
	wlIdx, err := remapWorkload(wl, est.ids)
	if err != nil {
		return rep, err
	}
	chosen := layout.WorkloadAware(est.mm, wlIdx)
	rep.CurrentCost = layout.IOCost(est.cur, est.mm, wlIdx)
	rep.ProjectedCost = layout.IOCost(chosen, est.mm, wlIdx)
	if rep.CurrentCost <= 0 {
		rep.Reason = "current layout has zero workload cost"
		return rep, nil
	}
	rep.Savings = 1 - rep.ProjectedCost/rep.CurrentCost
	if rep.Savings < at.MinSavings {
		rep.Reason = fmt.Sprintf("projected savings %.1f%% below threshold %.1f%%",
			rep.Savings*100, at.MinSavings*100)
		return rep, nil
	}

	// The rewrite reuses this pass's decoded planes and chosen layout as
	// long as the array's mutation sequence still matches the estimation
	// snapshot (the uncontended case decodes everything exactly once);
	// if anything mutated in between, Reorganize replans from live
	// metadata, so a racing insert can never publish a layout computed
	// from superseded contents.
	reorgOpts := ReorganizeOptions{
		Policy:       PolicyWorkloadAware,
		Workload:     wl,
		MatrixSample: at.MatrixSample,
		BatchK:       at.BatchK,
		// a version deleted between the histogram snapshot and the
		// rewrite must be re-filtered at plan time, not fail the pass
		lenientWorkload: true,
	}
	if at.BatchK == 0 && planes != nil {
		// batched rewrites slice the workload per batch, and an
		// estimate-cache hit has no decoded planes to hand over; in both
		// cases Reorganize decodes for itself
		reorgOpts.plan = &rewritePlan{seq: v.seq, ids: est.ids, planes: planes, layout: chosen}
	}
	err = s.Reorganize(name, reorgOpts)
	if err != nil {
		return rep, err
	}
	rep.Reorganized = true
	s.tuneReorgs.Add(1)
	return rep, nil
}

// TuneAll runs one tuner pass over every array with recorded traffic.
// Per-array failures are reported in the corresponding report's Reason
// and do not stop the sweep; only a closed store aborts it.
func (s *Store) TuneAll() ([]TuneReport, error) {
	var names []string
	s.mu.RLock()
	for name, st := range s.arrays {
		if st.workload.ops.Load() > 0 {
			names = append(names, name)
		}
	}
	s.mu.RUnlock()
	sort.Strings(names)
	var out []TuneReport
	for _, name := range names {
		rep, err := s.Tune(name)
		if err != nil {
			if errors.Is(err, ErrClosed) {
				return out, err
			}
			// arrays can be dropped between listing and tuning; anything
			// else (including a lost reorganize race) waits for the next
			// pass
			rep.Reason = err.Error()
		}
		out = append(out, rep)
	}
	return out, nil
}

// tuneEstimate is one array's cached estimation input, valid for one
// exact mutation sequence: the live version ids, the materialization
// matrix over them, and the layout on disk. The histogram is NOT part
// of it — costs are re-evaluated against fresh traffic on every pass.
type tuneEstimate struct {
	seq uint64
	ids []int
	mm  *matmat.Matrix
	cur layout.Layout
}

// currentLayoutOf derives the layout actually on disk from a metadata
// snapshot: a version's parent is the base most of its chunks are
// delta'ed against (self when most chunks are materialized). A base no
// longer live reads as materialized, which only overestimates the
// current cost of an already-degenerate layout.
func currentLayoutOf(v *readView, ids []int) layout.Layout {
	pos := make(map[int]int, len(ids))
	for i, id := range ids {
		pos[id] = i
	}
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
		// the candidate, so the tuner stays conservative)
		return layout.NewLayout(len(ids))
	}
	return l
}

// CurrentLayout reports the layout the named array currently uses on
// disk (derived from its chunk metadata) and the live version IDs each
// layout index corresponds to.
func (s *Store) CurrentLayout(name string) (layout.Layout, []int, error) {
	s.mu.RLock()
	st, ok := s.arrays[name]
	if !ok {
		s.mu.RUnlock()
		return layout.Layout{}, nil, fmt.Errorf("core: no array %q", name)
	}
	v := s.viewLocked(st)
	l := currentLayoutOf(v, v.ids)
	ids := append([]int(nil), v.ids...)
	s.mu.RUnlock()
	return l, ids, nil
}

// Tuner is the background auto-tune loop: every Options.AutoTune.Interval
// it runs TuneAll over the arrays with recorded traffic. It is started
// by Open when the interval is positive and stopped by Store.Close.
type Tuner struct {
	s        *Store
	interval time.Duration
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// startTuner launches the background loop if configured.
func (s *Store) startTuner() {
	if s.opts.AutoTune.Interval <= 0 {
		return
	}
	t := &Tuner{
		s:        s,
		interval: s.opts.AutoTune.Interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	s.tuner = t
	go t.loop()
}

// Tuner returns the store's background tuner, or nil when
// Options.AutoTune.Interval is zero.
func (s *Store) Tuner() *Tuner { return s.tuner }

func (t *Tuner) loop() {
	defer close(t.done)
	tick := time.NewTicker(t.interval)
	defer tick.Stop()
	for {
		select {
		case <-t.stop:
			return
		case <-tick.C:
			if _, err := t.s.TuneAll(); errors.Is(err, ErrClosed) {
				return
			}
		}
	}
}

// Stop terminates the loop and waits for any in-flight pass to finish.
// It is idempotent and safe to call concurrently with Close.
func (t *Tuner) Stop() {
	t.stopOnce.Do(func() { close(t.stop) })
	<-t.done
}
