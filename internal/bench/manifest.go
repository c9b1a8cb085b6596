package bench

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"arrayvers/internal/array"
	"arrayvers/internal/core"
)

// The manifest experiment measures the workload the store-wide commit
// log was built for: batches that span several arrays. Each K-array
// batch lands with Store.InsertMulti — one manifest append, one fsync,
// atomic across members — and the run reports the commit fsyncs it
// actually paid per batch.

// ManifestResult is the run's measurement, serialized into
// BENCH_manifest.json by cmd/avbench.
type ManifestResult struct {
	Arrays        int     `json:"arrays"`
	Batches       int     `json:"batches"`
	NsPerBatch    int64   `json:"ns_per_batch"`
	BatchesPerSec float64 `json:"batches_per_sec"`
	// MetaFsyncs counts the manifest-log fsyncs the batch loop paid;
	// FsyncsPerBatch is MetaFsyncs/Batches and must be 1.0.
	MetaFsyncs     int64   `json:"meta_fsyncs"`
	FsyncsPerBatch float64 `json:"fsyncs_per_batch"`
}

// ManifestSummary is the whole experiment plus the headline number CI
// gates on.
type ManifestSummary struct {
	Results []ManifestResult `json:"results"`
	// ManifestFsyncsPerBatch repeats the median run's FsyncsPerBatch
	// for the jq gate: one commit fsync per cross-array batch.
	ManifestFsyncsPerBatch float64 `json:"manifest_fsyncs_per_batch"`
}

// Manifest runs the cross-array commit experiment and returns the
// rendered table plus the machine-readable summary.
func Manifest(workDir string, sc Scale, parallelism int) (Table, ManifestSummary, error) {
	const side = 32 // 4 KB int32 payloads: commit cost dominates encode
	const arrays = 4
	const trials = 3
	batches := 40
	if sc.NOAASide < 128 {
		batches = 24 // quick scale
	}

	var cell []ManifestResult
	for trial := 1; trial <= trials; trial++ {
		dir := filepath.Join(workDir, fmt.Sprintf("manifest-%d", trial))
		res, err := runManifestConfig(dir, arrays, batches, side, parallelism)
		if err != nil {
			return Table{}, ManifestSummary{}, err
		}
		cell = append(cell, res)
	}
	sort.Slice(cell, func(a, b int) bool { return cell[a].BatchesPerSec < cell[b].BatchesPerSec })
	med := cell[len(cell)/2]
	summary := ManifestSummary{Results: []ManifestResult{med}, ManifestFsyncsPerBatch: med.FsyncsPerBatch}

	t := Table{
		Title:   "Cross-array batch ingest through the manifest log",
		Columns: []string{"Arrays", "Batches", "ns/batch", "batches/s", "meta fsyncs", "fsyncs/batch"},
		Rows: [][]string{{
			fmt.Sprintf("%d", med.Arrays),
			fmt.Sprintf("%d", med.Batches),
			fmt.Sprintf("%d", med.NsPerBatch),
			fmt.Sprintf("%.0f", med.BatchesPerSec),
			fmt.Sprintf("%d", med.MetaFsyncs),
			fmt.Sprintf("%.2f", med.FsyncsPerBatch),
		}},
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d durable batches, each spanning %d arrays with one %dx%d int32 version per member; every run read back byte-identical and verified",
			batches, arrays, side, side))
	return t, summary, nil
}

// runManifestConfig measures one run on a fresh durable store and
// fails if any committed version does not read back byte-identical.
func runManifestConfig(dir string, arrays, batches int, side int64, parallelism int) (ManifestResult, error) {
	opts := core.DefaultOptions()
	opts.Durability = true
	opts.Parallelism = parallelism
	// bulk-ingest shape, as in the ingest experiment: the run measures
	// the commit protocol, not chain decoding
	opts.AutoDelta = false
	store, err := core.Open(dir, opts)
	if err != nil {
		return ManifestResult{}, err
	}
	defer store.Close()
	names := make([]string, arrays)
	for i := range names {
		names[i] = fmt.Sprintf("M%d", i)
		sch := array.Schema{
			Name:  names[i],
			Dims:  []array.Dimension{{Name: "Y", Lo: 0, Hi: side - 1}, {Name: "X", Lo: 0, Hi: side - 1}},
			Attrs: []array.Attribute{{Name: "V", Type: array.Int32}},
		}
		if err := store.CreateArray(sch); err != nil {
			return ManifestResult{}, err
		}
	}
	content := func(seed int) *array.Dense {
		d := array.MustDense(array.Int32, []int64{side, side})
		for i := int64(0); i < d.NumCells(); i++ {
			d.SetBits(i, int64(seed)*2654435761+i*31)
		}
		return d
	}

	// the creation commits above are not part of the measured batch
	// loop; snapshot the counters to isolate it
	before := store.Stats()
	written := map[string]map[int]int{} // array -> version id -> seed
	for _, n := range names {
		written[n] = map[int]int{}
	}
	start := time.Now()
	for b := 0; b < batches; b++ {
		multi := make([]core.MultiInsert, arrays)
		for i, n := range names {
			multi[i] = core.MultiInsert{Array: n, Payloads: []core.Payload{core.DensePayload(content(b*arrays + i))}}
		}
		out, err := store.InsertMulti(multi)
		if err != nil {
			return ManifestResult{}, err
		}
		for i, n := range names {
			written[n][out[n][0]] = b*arrays + i
		}
	}
	elapsed := time.Since(start)

	// correctness: every acknowledged version reads back byte-identical
	for n, vers := range written {
		for id, seed := range vers {
			pl, err := store.Select(n, id)
			if err != nil {
				return ManifestResult{}, fmt.Errorf("manifest: %s@%d unreadable: %w", n, id, err)
			}
			if !pl.Dense.Equal(content(seed)) {
				return ManifestResult{}, fmt.Errorf("manifest: %s@%d not byte-identical", n, id)
			}
		}
		rep, err := store.Verify(n)
		if err != nil {
			return ManifestResult{}, err
		}
		if !rep.Ok() {
			return ManifestResult{}, fmt.Errorf("manifest: verify %s failed: %v", n, rep.Problems)
		}
	}
	st := store.Stats()
	metaFsyncs := st.ManifestFsyncs - before.ManifestFsyncs
	res := ManifestResult{
		Arrays:        arrays,
		Batches:       batches,
		NsPerBatch:    elapsed.Nanoseconds() / int64(batches),
		BatchesPerSec: float64(batches) / elapsed.Seconds(),
		MetaFsyncs:    metaFsyncs,
	}
	res.FsyncsPerBatch = float64(metaFsyncs) / float64(batches)
	return res, nil
}
