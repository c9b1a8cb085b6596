package bench

import (
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"arrayvers/internal/array"
	"arrayvers/internal/core"
)

// The ingest experiment measures the durable write path: concurrent
// writers inserting small dense versions into one array of a
// crash-safe (Options.Durability) store. One shared array concentrates
// the commit contention the group-commit coalescer exists for; the
// realized coalescing factor is reported per fan-out. (Comparisons
// against other commits go through benchmark/ and its committed
// baselines, not through a second code path kept alive here.)

// IngestResult is one fan-out's measurement, serialized into
// BENCH_ingest.json by cmd/avbench.
type IngestResult struct {
	Writers       int     `json:"writers"`
	Inserts       int     `json:"inserts"`
	NsPerInsert   int64   `json:"ns_per_insert"`
	InsertsPerSec float64 `json:"inserts_per_sec"`
	// GroupCommits is the number of shared commit points the run paid;
	// CoalesceFactor is inserts/commits (1.0 = no sharing).
	GroupCommits   int64   `json:"group_commits"`
	CoalesceFactor float64 `json:"coalesce_factor"`
}

// IngestSummary is the whole experiment: one result per fan-out.
type IngestSummary struct {
	Results []IngestResult `json:"results"`
}

// ingestFanouts are the concurrent writer counts measured.
var ingestFanouts = []int{1, 2, 4, 8}

// Ingest runs the durable-ingest experiment and returns the rendered
// table plus the machine-readable summary.
func Ingest(workDir string, sc Scale, parallelism int) (Table, IngestSummary, error) {
	const side = 32 // 4 KB int32 payloads: commit cost dominates encode
	const trials = 3
	total := 160
	if sc.NOAASide < 128 {
		total = 96 // quick scale
	}

	var summary IngestSummary
	run := 0
	for _, writers := range ingestFanouts {
		// median of N trials per cell: a shared box's transient fs
		// stalls (journal flushes, neighbors) otherwise dominate a
		// single short durable run in either direction
		var cell []IngestResult
		for trial := 0; trial < trials; trial++ {
			run++
			dir := filepath.Join(workDir, fmt.Sprintf("ingest-%d", run))
			res, err := runIngestConfig(dir, writers, total, side, parallelism)
			if err != nil {
				return Table{}, IngestSummary{}, err
			}
			cell = append(cell, res)
		}
		sort.Slice(cell, func(a, b int) bool { return cell[a].InsertsPerSec < cell[b].InsertsPerSec })
		summary.Results = append(summary.Results, cell[len(cell)/2])
	}

	t := Table{
		Title:   "Durable ingest — group commit by writer fan-out",
		Columns: []string{"Writers", "Inserts", "ns/insert", "inserts/s", "commits", "coalesce"},
	}
	for _, r := range summary.Results {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.Writers),
			fmt.Sprintf("%d", r.Inserts),
			fmt.Sprintf("%d", r.NsPerInsert),
			fmt.Sprintf("%.0f", r.InsertsPerSec),
			fmt.Sprintf("%d", r.GroupCommits),
			fmt.Sprintf("%.1fx", r.CoalesceFactor),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d durable inserts of %dx%d int32 versions into one shared array per run; every run read back byte-identical and verified",
			total, side, side))
	return t, summary, nil
}

// runIngestConfig measures one fan-out on a fresh durable store and
// fails if any committed version does not read back byte-identical.
func runIngestConfig(dir string, writers, total int, side int64, parallelism int) (IngestResult, error) {
	opts := core.DefaultOptions()
	opts.Durability = true
	opts.Parallelism = parallelism
	// bulk-ingest shape: materialize every version instead of reading
	// the predecessor back for delta analysis on each insert — the
	// experiment measures the durable commit path, not chain decoding
	opts.AutoDelta = false
	store, err := core.Open(dir, opts)
	if err != nil {
		return IngestResult{}, err
	}
	defer store.Close()
	const name = "Ingest"
	sch := array.Schema{
		Name:  name,
		Dims:  []array.Dimension{{Name: "Y", Lo: 0, Hi: side - 1}, {Name: "X", Lo: 0, Hi: side - 1}},
		Attrs: []array.Attribute{{Name: "V", Type: array.Int32}},
	}
	if err := store.CreateArray(sch); err != nil {
		return IngestResult{}, err
	}
	content := func(seed int) *array.Dense {
		d := array.MustDense(array.Int32, []int64{side, side})
		for i := int64(0); i < d.NumCells(); i++ {
			d.SetBits(i, int64(seed)*2654435761+i*31)
		}
		return d
	}

	var (
		next     atomic.Int64
		mu       sync.Mutex
		written  = map[int]int{} // version id -> seed
		firstErr error
		failed   atomic.Bool
		wg       sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				seed := int(next.Add(1)) - 1
				if seed >= total {
					return
				}
				id, err := store.Insert(name, core.DensePayload(content(seed)))
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					failed.Store(true)
					return
				}
				mu.Lock()
				written[id] = seed
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return IngestResult{}, firstErr
	}
	// correctness: every acknowledged insert reads back byte-identical
	for id, seed := range written {
		pl, err := store.Select(name, id)
		if err != nil {
			return IngestResult{}, fmt.Errorf("ingest writers=%d: version %d unreadable: %w", writers, id, err)
		}
		if !pl.Dense.Equal(content(seed)) {
			return IngestResult{}, fmt.Errorf("ingest writers=%d: version %d not byte-identical", writers, id)
		}
	}
	rep, err := store.Verify(name)
	if err != nil {
		return IngestResult{}, err
	}
	if !rep.Ok() {
		return IngestResult{}, fmt.Errorf("ingest writers=%d: verify failed: %v", writers, rep.Problems)
	}
	st := store.Stats()
	res := IngestResult{
		Writers:       writers,
		Inserts:       total,
		NsPerInsert:   elapsed.Nanoseconds() / int64(total),
		InsertsPerSec: float64(total) / elapsed.Seconds(),
		GroupCommits:  st.GroupCommits,
	}
	if st.GroupCommits > 0 {
		res.CoalesceFactor = float64(st.GroupCommitVersions) / float64(st.GroupCommits)
	}
	return res, nil
}
