package core

import (
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"arrayvers/internal/array"
	"arrayvers/internal/layout"
	"arrayvers/internal/workload"
)

// Workload-replay coverage for Tune (§IV-D): deterministic traces are
// handed to Tune as the a-priori workload, and the tests assert that it
// converges to the offline workload-aware layout, that reads stay
// byte-identical across every Tune-triggered re-layout, and that a
// workload the current layout already serves well never triggers a
// rewrite.

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

// diskLayout reports the layout the named array uses on disk and the
// live version IDs each layout index corresponds to.
func diskLayout(t *testing.T, s *Store, name string) (layout.Layout, []int) {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	st, ok := s.arrays[name]
	if !ok {
		t.Fatalf("no array %q", name)
	}
	v := viewOf(st, st.Versions)
	return currentLayoutOf(v, v.ids), append([]int(nil), v.ids...)
}

// offlineLayout plans the named array as Tune and a default Reorganize
// do (planMatrix), without rewriting anything, and returns the layout
// opts' policy chooses and the live version IDs it is over.
func offlineLayout(t *testing.T, s *Store, name string, opts ReorganizeOptions) (layout.Layout, []int) {
	t.Helper()
	v, release, err := s.snapshotUncached(name)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	mm, err := s.planMatrix(v)
	if err != nil {
		t.Fatal(err)
	}
	l, err := chooseLayout(mm, v.ids, opts)
	if err != nil {
		t.Fatal(err)
	}
	return l, v.ids
}

// TestTunerConvergesOnZipfTrace hands Tune a deterministic skewed
// trace and asserts (a) the pass reorganizes, (b) the committed layout
// equals what offline PolicyWorkloadAware chooses for the same
// workload, (c) replaying the trace against the cold (cache-off) store
// reads strictly fewer bytes after the pass than before it, (d) every
// version reads back byte-identical to ground truth, and (e) a second
// pass with the same workload is a no-op — Tune converges rather than
// oscillating.
func TestTunerConvergesOnZipfTrace(t *testing.T) {
	const n = 12
	s := testStore(t, smallOpts())
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
	wl := workload.ToQueries(trace)
	expected, expIDs := offlineLayout(t, s, "Z", ReorganizeOptions{Policy: PolicyWorkloadAware, Workload: wl})

	s.ResetStats()
	replayTrace(t, s, "Z", trace)
	untuned := s.Stats().BytesRead
	rep, err := s.Tune("Z", wl)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Reorganized {
		t.Fatalf("Tune declined to reorganize the linear baseline: %s", rep.Reason)
	}
	if rep.Savings < rep.MinSavings {
		t.Fatalf("reorganized below threshold: savings %.3f < %.3f", rep.Savings, rep.MinSavings)
	}
	s.ResetStats()
	replayTrace(t, s, "Z", trace)
	if tuned := s.Stats().BytesRead; tuned >= untuned {
		t.Fatalf("trace read %d bytes after the tune pass, %d before", tuned, untuned)
	}

	got, ids := diskLayout(t, s, "Z")
	if len(ids) != len(expIDs) {
		t.Fatalf("layout over %v, expected %v", ids, expIDs)
	}
	if !got.Equal(expected) {
		t.Fatalf("tuned layout %v does not match offline workload-aware layout %v", got.Parent, expected.Parent)
	}
	assertContent(t, s, "Z", versions)

	// convergence: the layout now matches the workload, so another pass
	// must not churn
	rep2, err := s.Tune("Z", wl)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Reorganized {
		t.Fatalf("Tune reorganized an already-tuned layout (savings %.3f)", rep2.Savings)
	}
}

// TestTunerSlidingWindowTrace covers the range-query shape: a window of
// four versions sliding across the version axis. Tuned for the old half
// of the history, the array must re-tune when the window shifts to the
// new half, keep reads byte-identical, and converge on the next pass.
func TestTunerSlidingWindowTrace(t *testing.T) {
	const n = 16
	s := testStore(t, smallOpts())
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
	for _, window := range [][]workload.Op{trace[:30], trace[30:]} {
		wl := workload.ToQueries(window)
		rep, err := s.Tune("SW", wl)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Reorganized {
			t.Fatalf("Tune declined the window %v..%v: %s", window[0].Versions, window[len(window)-1].Versions, rep.Reason)
		}
		if rep.ProjectedCost >= rep.CurrentCost {
			t.Fatalf("no projected improvement: %v -> %v", rep.CurrentCost, rep.ProjectedCost)
		}
		assertContent(t, s, "SW", versions)
		rep2, err := s.Tune("SW", wl)
		if err != nil {
			t.Fatal(err)
		}
		if rep2.Reorganized {
			t.Fatalf("Tune oscillated on a stable sliding-window workload (savings %.3f)", rep2.Savings)
		}
	}
}

// TestUniformTraceNeverTriggersReorganize is the no-regression guard: an
// array already laid out workload-aware for a uniform trace must not be
// rewritten when Tune is handed that same uniform workload.
func TestUniformTraceNeverTriggersReorganize(t *testing.T) {
	const n = 8
	s := testStore(t, smallOpts())
	if err := s.CreateArray(schema2D("U", 48)); err != nil {
		t.Fatal(err)
	}
	versions := evolvingVersions(n, 48, 23)
	for _, v := range versions {
		if _, err := s.Insert("U", DensePayload(v)); err != nil {
			t.Fatal(err)
		}
	}
	wl := workload.ToQueries(workload.Random(n, 200, 9))
	if err := s.Reorganize("U", ReorganizeOptions{
		Policy:   PolicyWorkloadAware,
		Workload: wl,
	}); err != nil {
		t.Fatal(err)
	}
	before, _ := diskLayout(t, s, "U")
	rep, err := s.Tune("U", wl)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reorganized {
		t.Fatalf("uniform trace triggered a reorganize (savings %.3f)", rep.Savings)
	}
	if !strings.Contains(rep.Reason, "below threshold") {
		t.Fatalf("unexpected skip reason: %q", rep.Reason)
	}
	if after, _ := diskLayout(t, s, "U"); !after.Equal(before) {
		t.Fatalf("declined pass changed the layout: %v -> %v", before.Parent, after.Parent)
	}
	assertContent(t, s, "U", versions)
}

// TestTunerUnderConcurrentLoad runs an explicit Tune loop against 8
// concurrent select/insert goroutines (the -race safety net for a
// rewrite whose build runs beside writes), then checks that every version still reads
// back byte-identical and the store verifies.
func TestTunerUnderConcurrentLoad(t *testing.T) {
	s := testStore(t, concurrencyOpts())
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
	// the layouts Tune alternates between: one for a hot oldest version,
	// one for a hot newest seed version, so passes keep rewriting while
	// the load runs
	workloads := [][]layout.Query{
		{layout.Snapshot(1, 50), layout.Range(1, 3, 5)},
		{layout.Snapshot(seedVersions, 50), layout.Range(4, seedVersions, 5)},
	}

	var wg sync.WaitGroup
	fail := make(chan error, 64)
	// 7 selecting goroutines, heavily skewed to the oldest version
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
					t.Errorf("select %d mismatch during tune storm", id)
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
	// the Tune loop runs until the load is done
	stop := make(chan struct{})
	tuned := make(chan int)
	go func() {
		passes := 0
		defer func() { tuned <- passes }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.Tune("T", workloads[passes%2]); err != nil {
				fail <- err
				return
			}
			passes++
		}
	}()
	wg.Wait()
	close(stop)
	passes := <-tuned
	close(fail)
	for err := range fail {
		t.Fatal(err)
	}
	if passes == 0 {
		t.Fatal("no Tune pass ran during the load")
	}
	assertContent(t, s, "T", versions)
	rep, err := s.Verify("T")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("store fails verify after tune storm: %v", rep.Problems)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReorganizeDuringConcurrentInserts pins the rewrite's
// carry-forward: explicit reorganizes race a stream of inserts, the
// versions committed during a build are carried into its generation,
// and every version must stay byte-identical.
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

// TestTunePlanOfDroppedArrayIsNotReused hands Reorganize a plan Tune
// would have made of an array that was then dropped and recreated under
// the same name with as many versions. The plan describes the dropped
// array's contents, so the rewrite must replan: every version of the
// recreated array reads back as written.
func TestTunePlanOfDroppedArrayIsNotReused(t *testing.T) {
	const side = 16
	s := testStore(t, smallOpts())
	defer s.Close()
	fill := func(versions []*array.Dense) {
		t.Helper()
		if err := s.CreateArray(schema2D("A", side)); err != nil {
			t.Fatal(err)
		}
		for _, c := range versions {
			if _, err := s.Insert("A", DensePayload(c)); err != nil {
				t.Fatal(err)
			}
		}
	}
	fill(evolvingVersions(3, side, 40))
	v, release, err := s.snapshotUncached("A")
	if err != nil {
		t.Fatal(err)
	}
	release()
	plan := &rewritePlan{st: v.st, ids: v.ids, layout: layout.LinearChain(len(v.ids))}
	if err := s.DeleteArray("A"); err != nil {
		t.Fatal(err)
	}
	fresh := evolvingVersions(3, side, 41)
	fill(fresh)
	if err := s.Reorganize("A", ReorganizeOptions{Policy: PolicyLinearChain, plan: plan}); err != nil {
		t.Fatal(err)
	}
	assertContent(t, s, "A", fresh)
	if rep, err := s.Verify("A"); err != nil || !rep.Ok() {
		t.Fatalf("verify: %v %v", err, rep.Problems)
	}
}

// TestTunePassLeavesCacheUntouched guards the estimation sweep's cache
// bypass: a declined Tune pass decodes every version, and none of that
// may evict or repopulate the clients' hot decoded-chunk working set.
func TestTunePassLeavesCacheUntouched(t *testing.T) {
	s := testStore(t, concurrencyOpts())
	if err := s.CreateArray(schema2D("CC", 64)); err != nil {
		t.Fatal(err)
	}
	versions := evolvingVersions(5, 64, 29)
	var wl []layout.Query
	for i, v := range versions {
		if _, err := s.Insert("CC", DensePayload(v)); err != nil {
			t.Fatal(err)
		}
		wl = append(wl, layout.Snapshot(i+1, 1))
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
	rep, err := s.Tune("CC", wl)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reorganized {
		t.Fatalf("pass unexpectedly reorganized (savings %.3f); pick a workload below threshold", rep.Savings)
	}
	after := s.Stats()
	if after.CacheEntries != before.CacheEntries || after.CacheEvictions != before.CacheEvictions {
		t.Fatalf("Tune estimation disturbed the cache: entries %d->%d, evictions %d->%d",
			before.CacheEntries, after.CacheEntries, before.CacheEvictions, after.CacheEvictions)
	}
	if after.CacheHits != before.CacheHits || after.CacheMisses != before.CacheMisses {
		t.Fatalf("Tune estimation skewed hit-rate counters: hits %d->%d, misses %d->%d",
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
	s := testStore(t, smallOpts())
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

// TestCallerWorkloadValidation pins the API boundary for caller
// workloads: Reorganize with PolicyWorkloadAware and Tune reject an
// empty workload, a query naming no version, a weight that is not a
// finite number > 0, and an unknown version — before anything is
// rewritten.
func TestCallerWorkloadValidation(t *testing.T) {
	s := testStore(t, smallOpts())
	if err := s.CreateArray(schema2D("V", 32)); err != nil {
		t.Fatal(err)
	}
	versions := evolvingVersions(4, 32, 33)
	for _, v := range versions {
		if _, err := s.Insert("V", DensePayload(v)); err != nil {
			t.Fatal(err)
		}
	}
	gen := func() int {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return s.arrays["V"].Gen
	}
	gen0 := gen()
	for _, tc := range []struct {
		name string
		wl   []layout.Query
		want string
	}{
		{"nil", nil, "empty workload"},
		{"empty", []layout.Query{}, "empty workload"},
		{"no versions", []layout.Query{{Weight: 1}}, "names no version"},
		{"zero weight", []layout.Query{layout.Snapshot(1, 0)}, "finite weight > 0"},
		{"negative weight", []layout.Query{layout.Snapshot(1, 5), layout.Snapshot(2, -3)}, "finite weight > 0"},
		{"NaN weight", []layout.Query{layout.Snapshot(1, math.NaN())}, "finite weight > 0"},
		{"infinite weight", []layout.Query{layout.Snapshot(1, math.Inf(1))}, "finite weight > 0"},
		{"unknown version", []layout.Query{layout.Snapshot(1, 5), layout.Snapshot(99, 5)}, "unknown version"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := s.Reorganize("V", ReorganizeOptions{Policy: PolicyWorkloadAware, Workload: tc.wl})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Reorganize: %v, want an error containing %q", err, tc.want)
			}
			if _, err := s.Tune("V", tc.wl); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Tune: %v, want an error containing %q", err, tc.want)
			}
		})
	}
	if got := gen(); got != gen0 {
		t.Fatalf("a rejected workload rewrote the array: generation %d -> %d", gen0, got)
	}
	assertContent(t, s, "V", versions)
	// the other policies take no workload, so none is required
	if err := s.Reorganize("V", ReorganizeOptions{Policy: PolicyAlgorithm2}); err != nil {
		t.Fatal(err)
	}
}

// TestTuneCostsASampledReorganize pins Tune's planning cost to a
// sampled Reorganize's: on two identical stores of 16 insert-order
// 512×512 int32 versions (four 256 KiB chunks each), a Tune that
// rewrites allocates at most twice what Reorganize{PolicyAlgorithm2,
// MatrixSample: 4096} does. Both decode every version once and price
// one sampled matrix; a Tune that assembled planes and encoded every
// pair instead allocates over three times as much at 16 versions, and
// grows quadratically with the version count.
func TestTuneCostsASampledReorganize(t *testing.T) {
	const side, n = 512, 16
	versions := driftSeries(n, side, 88)
	// allocated runs op on a fresh store holding versions and reports
	// what op allocated
	allocated := func(op func(s *Store) error) uint64 {
		opts := DefaultOptions()
		opts.ChunkBytes = 256 << 10
		opts.CacheBytes = DefaultCacheBytes
		s := testStore(t, opts)
		defer s.Close()
		if err := s.CreateArray(schema2D("T", side)); err != nil {
			t.Fatal(err)
		}
		for _, v := range versions {
			if _, err := s.Insert("T", DensePayload(v)); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		err := op(s)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	tune := allocated(func(s *Store) error {
		// the newest version alone, at the far end of the insert-order
		// chain: the workload-aware layout materializes it, so Tune rewrites
		rep, err := s.Tune("T", []layout.Query{layout.Snapshot(n, 1)})
		if err == nil && !rep.Reorganized {
			t.Fatalf("Tune did not rewrite: %s", rep.Reason)
		}
		return err
	})
	reorg := allocated(func(s *Store) error {
		return s.Reorganize("T", ReorganizeOptions{Policy: PolicyAlgorithm2, MatrixSample: 4096})
	})
	if tune > 2*reorg {
		t.Fatalf("Tune allocated %.1f MiB, %.1f× a sampled Reorganize's %.1f MiB; want at most 2×",
			float64(tune)/(1<<20), float64(tune)/float64(reorg), float64(reorg)/(1<<20))
	}
}
