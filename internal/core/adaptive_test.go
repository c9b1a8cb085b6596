package core

import (
	"strings"
	"sync"
	"testing"
	"time"

	"arrayvers/internal/array"
	"arrayvers/internal/layout"
	"arrayvers/internal/workload"
)

// Workload-replay coverage for the adaptive reorganizer: deterministic
// traces are replayed against a store (recording into the workload
// histogram exactly as live traffic would), the tuner runs, and the
// tests assert that it converges to the offline workload-aware layout,
// that reads stay byte-identical across every tuner-triggered
// re-layout, and that a workload the current layout already serves well
// never triggers a rewrite.

// replayTrace executes a read-only workload trace against the store.
func replayTrace(t *testing.T, s *Store, name string, ops []workload.Op) {
	t.Helper()
	for _, op := range ops {
		var err error
		switch op.Kind {
		case workload.SelectOne:
			_, err = s.Select(name, op.Versions[0])
		case workload.SelectRange:
			_, err = s.SelectMulti(name, op.Versions)
		default:
			t.Fatalf("trace contains non-read op %v", op.Kind)
		}
		if err != nil {
			t.Fatalf("replay %v %v: %v", op.Kind, op.Versions, err)
		}
	}
}

// assertContent checks every version against its ground-truth content.
func assertContent(t *testing.T, s *Store, name string, versions []*array.Dense) {
	t.Helper()
	for i, want := range versions {
		got, err := s.Select(name, i+1)
		if err != nil {
			t.Fatalf("version %d unreadable: %v", i+1, err)
		}
		if !got.Dense.Equal(want) {
			t.Fatalf("version %d not byte-identical", i+1)
		}
	}
}

func adaptiveOpts() Options {
	o := smallOpts()
	o.AutoTune.MinOps = 1
	return o
}

// TestTunerConvergesOnZipfTrace replays a deterministic skewed trace,
// runs one tuner pass, and asserts (a) the pass reorganizes, (b) the
// committed layout equals what offline PolicyWorkloadAware chooses for
// the same trace, (c) replaying the trace against the cold (cache-off)
// store reads strictly fewer bytes after the pass than before it, (d)
// every version reads back byte-identical to ground truth, and (e) a
// second pass over the (decayed) histogram is a no-op — the tuner
// converges rather than oscillating.
func TestTunerConvergesOnZipfTrace(t *testing.T) {
	const n = 12
	s := testStore(t, adaptiveOpts())
	if err := s.CreateArray(schema2D("Z", 48)); err != nil {
		t.Fatal(err)
	}
	versions := evolvingVersions(n, 48, 21)
	for _, v := range versions {
		if _, err := s.Insert("Z", DensePayload(v)); err != nil {
			t.Fatal(err)
		}
	}
	// the untuned baseline: linear chain, pathological for a trace whose
	// hottest version is the oldest
	if err := s.Reorganize("Z", ReorganizeOptions{Policy: PolicyLinearChain}); err != nil {
		t.Fatal(err)
	}
	trace := workload.Zipfian(n, 200, 1.6, 7)

	// offline expectation on the identical trace (ComputeLayout records
	// nothing, so the histogram stays exactly the trace)
	expected, _, expIDs, err := s.ComputeLayout("Z", ReorganizeOptions{
		Policy:   PolicyWorkloadAware,
		Workload: workload.ToQueries(trace),
	})
	if err != nil {
		t.Fatal(err)
	}

	s.ResetStats()
	replayTrace(t, s, "Z", trace)
	untuned := s.Stats().BytesRead
	rep, err := s.Tune("Z")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Reorganized {
		t.Fatalf("tuner declined to reorganize the linear baseline: %s", rep.Reason)
	}
	if rep.Savings < rep.MinSavings {
		t.Fatalf("reorganized below threshold: savings %.3f < %.3f", rep.Savings, rep.MinSavings)
	}
	s.ResetStats()
	replayTrace(t, s, "Z", trace)
	if tuned := s.Stats().BytesRead; tuned >= untuned {
		t.Fatalf("trace read %d bytes after the tune pass, %d before", tuned, untuned)
	}

	got, ids, err := s.CurrentLayout("Z")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(expIDs) {
		t.Fatalf("layout over %v, expected %v", ids, expIDs)
	}
	if !got.Equal(expected) {
		t.Fatalf("tuned layout %v does not match offline workload-aware layout %v", got.Parent, expected.Parent)
	}
	assertContent(t, s, "Z", versions)

	// convergence: the layout now matches the workload, so another pass
	// must not churn
	rep2, err := s.Tune("Z")
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Reorganized {
		t.Fatalf("tuner reorganized an already-tuned layout (savings %.3f)", rep2.Savings)
	}
	st := s.Stats()
	if st.TunePasses != 2 || st.TuneReorganizes != 1 {
		t.Fatalf("tune counters = %d passes / %d reorgs, want 2/1", st.TunePasses, st.TuneReorganizes)
	}
}

// TestTunerSlidingWindowTrace covers the range-query shape: a window
// sliding across the version axis. The tuner must improve the projected
// cost, keep reads byte-identical, and converge by the second pass.
func TestTunerSlidingWindowTrace(t *testing.T) {
	const n = 16
	o := adaptiveOpts()
	// range scans over a linear chain waste less than skewed snapshots
	// do, so this test exercises the shape with a lower trigger bar
	o.AutoTune.MinSavings = 0.05
	s := testStore(t, o)
	if err := s.CreateArray(schema2D("SW", 48)); err != nil {
		t.Fatal(err)
	}
	versions := evolvingVersions(n, 48, 22)
	for _, v := range versions {
		if _, err := s.Insert("SW", DensePayload(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Reorganize("SW", ReorganizeOptions{Policy: PolicyLinearChain}); err != nil {
		t.Fatal(err)
	}
	trace := workload.SlidingWindow(n, 60, 4)
	replayTrace(t, s, "SW", trace)
	rep, err := s.Tune("SW")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Reorganized {
		t.Fatalf("tuner declined the sliding-window trace: %s", rep.Reason)
	}
	if rep.ProjectedCost >= rep.CurrentCost {
		t.Fatalf("no projected improvement: %v -> %v", rep.CurrentCost, rep.ProjectedCost)
	}
	assertContent(t, s, "SW", versions)
	rep2, err := s.Tune("SW")
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Reorganized {
		t.Fatalf("tuner oscillated on a stable sliding-window workload (savings %.3f)", rep2.Savings)
	}
}

// TestUniformTraceNeverTriggersReorganize is the no-regression guard: an
// array already laid out workload-aware for a uniform trace must not be
// rewritten when the tuner observes that same uniform traffic.
func TestUniformTraceNeverTriggersReorganize(t *testing.T) {
	const n = 8
	s := testStore(t, adaptiveOpts())
	if err := s.CreateArray(schema2D("U", 48)); err != nil {
		t.Fatal(err)
	}
	versions := evolvingVersions(n, 48, 23)
	for _, v := range versions {
		if _, err := s.Insert("U", DensePayload(v)); err != nil {
			t.Fatal(err)
		}
	}
	trace := workload.Random(n, 200, 9)
	if err := s.Reorganize("U", ReorganizeOptions{
		Policy:   PolicyWorkloadAware,
		Workload: workload.ToQueries(trace),
	}); err != nil {
		t.Fatal(err)
	}
	replayTrace(t, s, "U", trace)
	rep, err := s.Tune("U")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reorganized {
		t.Fatalf("uniform trace triggered a reorganize (savings %.3f)", rep.Savings)
	}
	if !strings.Contains(rep.Reason, "below threshold") {
		t.Fatalf("unexpected skip reason: %q", rep.Reason)
	}
	if got := s.Stats().TuneReorganizes; got != 0 {
		t.Fatalf("TuneReorganizes = %d, want 0", got)
	}
	assertContent(t, s, "U", versions)
}

// TestWorkloadRecorderExportAndDecay pins the Store.Workload surface:
// recorded patterns, weights, RecordWorkload seeding, per-pass decay,
// and the Stats counters.
func TestWorkloadRecorderExportAndDecay(t *testing.T) {
	s := testStore(t, smallOpts()) // default thresholds: MinOps 8 skips the pass
	if err := s.CreateArray(schema2D("W", 32)); err != nil {
		t.Fatal(err)
	}
	for _, v := range evolvingVersions(3, 32, 24) {
		if _, err := s.Insert("W", DensePayload(v)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Select("W", 2); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Select("W", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SelectMulti("W", []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	wl, err := s.Workload("W")
	if err != nil {
		t.Fatal(err)
	}
	if len(wl) != 3 {
		t.Fatalf("got %d patterns, want 3: %v", len(wl), wl)
	}
	// heaviest first
	if wl[0].Weight != 3 || len(wl[0].Versions) != 1 || wl[0].Versions[0] != 2 {
		t.Fatalf("heaviest pattern = %v, want version 2 weight 3", wl[0])
	}
	st := s.Stats()
	if st.WorkloadOps != 5 || st.WorkloadPatterns != 3 {
		t.Fatalf("workload counters = %d ops / %d patterns, want 5/3", st.WorkloadOps, st.WorkloadPatterns)
	}

	// a MinOps-skipped pass must NOT decay: trickle traffic accumulates
	// across intervals instead of being drained before it can ever be
	// acted on
	rep, err := s.Tune("W")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reorganized {
		t.Fatal("5-op workload must not clear the default MinOps threshold")
	}
	wl, err = s.Workload("W")
	if err != nil {
		t.Fatal(err)
	}
	if wl[0].Weight != 3 {
		t.Fatalf("MinOps skip decayed the histogram: heaviest = %v, want 3", wl[0].Weight)
	}

	// seeding: imported queries merge into the histogram
	if err := s.RecordWorkload("W", []layout.Query{layout.Range(1, 3, 10)}); err != nil {
		t.Fatal(err)
	}
	wl, err = s.Workload("W")
	if err != nil {
		t.Fatal(err)
	}
	if wl[0].Weight != 10 || len(wl[0].Versions) != 3 {
		t.Fatalf("seeded pattern = %v, want versions 1..3 weight 10", wl[0])
	}

	// the histogram now clears MinOps (15 ops), so this pass estimates —
	// and an estimating pass decays
	if _, err := s.Tune("W"); err != nil {
		t.Fatal(err)
	}
	wl, err = s.Workload("W")
	if err != nil {
		t.Fatal(err)
	}
	if wl[0].Weight != 5 {
		t.Fatalf("estimating pass did not decay: heaviest = %v, want 5", wl[0].Weight)
	}
	if _, err := s.Workload("nope"); err == nil {
		t.Fatal("Workload of unknown array must error")
	}
	if err := s.RecordWorkload("nope", nil); err == nil {
		t.Fatal("RecordWorkload of unknown array must error")
	}
}

// TestTunerUnderConcurrentLoad runs the background tuner at a tiny
// interval against 8 concurrent select/insert goroutines (the -race
// safety net for the off-lock rewrite path), then checks that every
// version still reads back byte-identical and the store verifies.
func TestTunerUnderConcurrentLoad(t *testing.T) {
	o := concurrencyOpts()
	o.AutoTune = AutoTuneOptions{
		Interval:   2 * time.Millisecond,
		MinSavings: 0.05,
		MinOps:     4,
		Decay:      0.9,
	}
	s := testStore(t, o)
	defer s.Close()
	if err := s.CreateArray(schema2D("T", 64)); err != nil {
		t.Fatal(err)
	}
	const seedVersions = 6
	versions := evolvingVersions(seedVersions+10, 64, 25)
	for _, v := range versions[:seedVersions] {
		if _, err := s.Insert("T", DensePayload(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Reorganize("T", ReorganizeOptions{Policy: PolicyLinearChain}); err != nil {
		t.Fatal(err)
	}
	if s.Tuner() == nil {
		t.Fatal("background tuner not running")
	}

	var wg sync.WaitGroup
	fail := make(chan error, 64)
	// 7 selecting goroutines, heavily skewed to the oldest version so
	// the background tuner has something to chase while they run
	for g := 0; g < 7; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				id := 1
				if i%5 == 4 {
					id = (g+i)%seedVersions + 1
				}
				pl, err := s.Select("T", id)
				if err != nil {
					fail <- err
					return
				}
				if !pl.Dense.Equal(versions[id-1]) {
					t.Errorf("select %d mismatch during tuner storm", id)
					return
				}
				if i%7 == 6 {
					if _, err := s.SelectMulti("T", []int{1, 2, 3}); err != nil {
						fail <- err
						return
					}
				}
			}
		}(g)
	}
	// 1 inserting goroutine (8 workers total with the selectors)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, v := range versions[seedVersions:] {
			if _, err := s.Insert("T", DensePayload(v)); err != nil {
				fail <- err
				return
			}
		}
	}()
	wg.Wait()
	close(fail)
	for err := range fail {
		t.Fatal(err)
	}

	// force one deterministic pass on top of whatever the background
	// loop managed, then check the world
	if _, err := s.Tune("T"); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().TunePasses; got == 0 {
		t.Fatal("no tuner passes recorded")
	}
	assertContent(t, s, "T", versions)
	rep, err := s.Verify("T")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("store fails verify after tuner storm: %v", rep.Problems)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReorganizeDuringConcurrentInserts pins the off-lock rewrite's
// retry/fallback path: explicit reorganizes race a stream of inserts,
// and every version must stay byte-identical whichever path committed.
func TestReorganizeDuringConcurrentInserts(t *testing.T) {
	s := testStore(t, concurrencyOpts())
	if err := s.CreateArray(schema2D("R", 64)); err != nil {
		t.Fatal(err)
	}
	const seedVersions = 4
	versions := evolvingVersions(seedVersions+12, 64, 26)
	for _, v := range versions[:seedVersions] {
		if _, err := s.Insert("R", DensePayload(v)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	fail := make(chan error, 16)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, v := range versions[seedVersions:] {
			if _, err := s.Insert("R", DensePayload(v)); err != nil {
				fail <- err
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		policies := []LayoutPolicy{PolicyLinearChain, PolicyOptimal, PolicyHeadBiased, PolicyOptimal}
		for _, p := range policies {
			if err := s.Reorganize("R", ReorganizeOptions{Policy: p}); err != nil {
				fail <- err
				return
			}
		}
	}()
	wg.Wait()
	close(fail)
	for err := range fail {
		t.Fatal(err)
	}
	assertContent(t, s, "R", versions)
	rep, err := s.Verify("R")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("verify failed after racing reorganizes: %v", rep.Problems)
	}
}

// TestTuneAllForgetsDroppedArrays guards the ghost-histogram leak: an
// in-flight select that records into a dropped array after DeleteArray
// must leave no trace — the histogram lives on the dropped arrayState,
// so the very first sweep skips it, and a same-name array starts empty.
func TestTuneAllForgetsDroppedArrays(t *testing.T) {
	s := testStore(t, adaptiveOpts())
	if err := s.CreateArray(schema2D("D", 32)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert("D", DensePayload(evolvingVersions(1, 32, 27)[0])); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Select("D", 1); err != nil {
		t.Fatal(err)
	}
	s.mu.RLock()
	dropped := s.arrays["D"]
	s.mu.RUnlock()
	if err := s.DeleteArray("D"); err != nil {
		t.Fatal(err)
	}
	// the racing in-flight select records into the state it snapshotted
	dropped.workload.record([]int{1}, 1)
	reps, err := s.TuneAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 0 {
		t.Fatalf("first sweep reports %v, want none", reps)
	}
	if err := s.CreateArray(schema2D("D", 32)); err != nil {
		t.Fatal(err)
	}
	if wl, err := s.Workload("D"); err != nil || len(wl) != 0 {
		t.Fatalf("recreated array inherits workload %v (%v)", wl, err)
	}
	rep, err := s.Tune("D")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Reason, "insufficient recorded workload") {
		t.Fatalf("recreated array's tune pass: %+v", rep)
	}
}

// TestLenientWorkloadSurvivesDeletedVersions pins the tuner's rewrite
// path against the snapshot/delete race: a workload referencing a
// version that no longer exists must be re-filtered at plan time under
// the lenient flag, and keep the strict error for explicit API callers.
func TestLenientWorkloadSurvivesDeletedVersions(t *testing.T) {
	s := testStore(t, adaptiveOpts())
	if err := s.CreateArray(schema2D("L", 48)); err != nil {
		t.Fatal(err)
	}
	versions := evolvingVersions(6, 48, 28)
	for _, v := range versions {
		if _, err := s.Insert("L", DensePayload(v)); err != nil {
			t.Fatal(err)
		}
	}
	wl := []layout.Query{layout.Snapshot(99, 5), layout.Snapshot(1, 5)}
	strict := ReorganizeOptions{Policy: PolicyWorkloadAware, Workload: wl}
	if err := s.Reorganize("L", strict); err == nil || !strings.Contains(err.Error(), "unknown version") {
		t.Fatalf("strict reorganize accepted a dangling workload reference: %v", err)
	}
	lenient := strict
	lenient.lenientWorkload = true
	if err := s.Reorganize("L", lenient); err != nil {
		t.Fatalf("lenient reorganize failed on a dangling reference: %v", err)
	}
	assertContent(t, s, "L", versions)
}

// TestTunePassLeavesCacheUntouched guards the estimation sweep's cache
// bypass: a declined tuner pass decodes every version, and none of that
// may evict or repopulate the clients' hot decoded-chunk working set.
func TestTunePassLeavesCacheUntouched(t *testing.T) {
	o := concurrencyOpts()
	o.AutoTune.MinOps = 1
	s := testStore(t, o)
	if err := s.CreateArray(schema2D("CC", 64)); err != nil {
		t.Fatal(err)
	}
	versions := evolvingVersions(5, 64, 29)
	for _, v := range versions {
		if _, err := s.Insert("CC", DensePayload(v)); err != nil {
			t.Fatal(err)
		}
	}
	// warm the client working set
	for i := range versions {
		if _, err := s.Select("CC", i+1); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Stats()
	if before.CacheEntries == 0 {
		t.Fatal("selects populated no cache entries")
	}
	rep, err := s.Tune("CC")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reorganized {
		t.Fatalf("pass unexpectedly reorganized (savings %.3f); pick a workload below threshold", rep.Savings)
	}
	after := s.Stats()
	if after.CacheEntries != before.CacheEntries || after.CacheEvictions != before.CacheEvictions {
		t.Fatalf("tuner estimation disturbed the cache: entries %d->%d, evictions %d->%d",
			before.CacheEntries, after.CacheEntries, before.CacheEvictions, after.CacheEvictions)
	}
	if after.CacheHits != before.CacheHits || after.CacheMisses != before.CacheMisses {
		t.Fatalf("tuner estimation skewed hit-rate counters: hits %d->%d, misses %d->%d",
			before.CacheHits, after.CacheHits, before.CacheMisses, after.CacheMisses)
	}
	// warm reads still served from cache after the pass
	reads := after.ChunksRead
	if _, err := s.Select("CC", 5); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().ChunksRead; got != reads {
		t.Fatalf("hot select hit disk after a tune pass (%d extra chunk reads)", got-reads)
	}
}

// TestBatchedStrictWorkloadStillValidates pins strict/lenient symmetry:
// BatchK must not silently swallow a dangling workload reference that
// the non-batched strict path rejects.
func TestBatchedStrictWorkloadStillValidates(t *testing.T) {
	s := testStore(t, adaptiveOpts())
	if err := s.CreateArray(schema2D("B", 48)); err != nil {
		t.Fatal(err)
	}
	for _, v := range evolvingVersions(6, 48, 30) {
		if _, err := s.Insert("B", DensePayload(v)); err != nil {
			t.Fatal(err)
		}
	}
	bad := ReorganizeOptions{
		Policy:   PolicyWorkloadAware,
		Workload: []layout.Query{layout.Snapshot(99, 5)},
		BatchK:   3,
	}
	if err := s.Reorganize("B", bad); err == nil || !strings.Contains(err.Error(), "unknown version") {
		t.Fatalf("batched strict reorganize accepted a dangling workload reference: %v", err)
	}
}

// TestTuneEstimateCachedAcrossPasses pins the seq-keyed estimate cache:
// a second pass over an array with no metadata mutations in between
// must not re-decode the version history (zero additional chunk reads),
// and any mutation must invalidate the cache.
func TestTuneEstimateCachedAcrossPasses(t *testing.T) {
	o := smallOpts()
	o.AutoTune.MinOps = 1
	s := testStore(t, o)
	if err := s.CreateArray(schema2D("EC", 48)); err != nil {
		t.Fatal(err)
	}
	versions := evolvingVersions(4, 48, 31)
	for _, v := range versions {
		if _, err := s.Insert("EC", DensePayload(v)); err != nil {
			t.Fatal(err)
		}
	}
	// uniform-ish traffic the space-optimal-ish insert layout already
	// serves fine, so passes estimate and decline
	for i := range versions {
		if _, err := s.Select("EC", i+1); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := s.Tune("EC")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reorganized {
		t.Fatalf("unexpected reorganize (savings %.3f); this test wants declining passes", rep.Savings)
	}
	reads := s.Stats().ChunksRead
	if _, err := s.Tune("EC"); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().ChunksRead; got != reads {
		t.Fatalf("pass over an unmutated array re-decoded history (%d extra chunk reads)", got-reads)
	}
	// a mutation invalidates the cached estimate: the next pass decodes
	if _, err := s.Insert("EC", DensePayload(evolvingVersions(1, 48, 32)[0])); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Tune("EC"); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().ChunksRead; got == reads {
		t.Fatal("pass after a mutation did not re-decode the history")
	}
}
