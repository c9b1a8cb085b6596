package bench

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"arrayvers/internal/array"
	"arrayvers/internal/bitpack"
	"arrayvers/internal/core"
)

// The hot-path experiment measures the select/insert fast paths this
// repo adds on top of the paper: the bounded worker pool and the
// store-wide decoded-chunk cache. It stacks a long delta chain with
// SelectMulti — the paper's worst case (Fig. 2: "a chain of versions
// must be accessed") — under a serial/uncached baseline and a
// parallel/cached configuration, and reports machine-readable numbers so
// the perf trajectory is trackable across PRs.

// HotPathResult is one configuration's measurement, serialized into
// BENCH_hotpath.json by cmd/avbench.
type HotPathResult struct {
	Name          string  `json:"name"`
	Versions      int     `json:"versions"`
	ChainChunks   int64   `json:"chain_chunks"`
	Parallelism   int     `json:"parallelism"`
	CacheBytes    int64   `json:"cache_bytes"`
	InsertNsPerOp int64   `json:"insert_ns_per_op"`
	ColdNsPerOp   int64   `json:"cold_select_ns_per_op"`
	WarmNsPerOp   int64   `json:"warm_select_ns_per_op"`
	WarmMBPerSec  float64 `json:"warm_mb_per_sec"`
	CacheHitRate  float64 `json:"cache_hit_rate"`
	// Speedup is this configuration's warm SelectMulti throughput over
	// the serial/uncached baseline (1.0 for the baseline itself).
	Speedup float64 `json:"speedup_vs_baseline"`
}

// HotPathReport is the whole machine-readable hotpath result: the
// serial-vs-tuned configurations plus the kernel microbench and the
// zero-copy (mmap) select-latency comparison. CI gates on KernelSpeedup
// and on the mmap p99 not regressing the read()+copy baseline.
type HotPathReport struct {
	Configs []HotPathResult `json:"configs"`

	// Kernel microbench: one chunk's worth of signed codes unpacked by
	// the scalar reference and the batched kernel.
	KernelVariant   string  `json:"kernel_variant"`
	KernelScalarNs  int64   `json:"kernel_scalar_ns_per_chunk"`
	KernelBatchedNs int64   `json:"kernel_batched_ns_per_chunk"`
	KernelSpeedup   float64 `json:"kernel_speedup"`

	// Zero-copy read path: interleaved uncached single-version selects
	// over the same on-disk chain, through an mmap-backed store and a
	// read()+copy store. MmapEnabled records whether the mapped store
	// actually served reads from mappings (false on platforms without
	// mmap support, where the two columns measure the same path).
	MmapEnabled      bool  `json:"mmap_enabled"`
	MmapSelectP99Ns  int64 `json:"mmap_select_p99_ns"`
	PlainSelectP99Ns int64 `json:"plain_select_p99_ns"`
}

// HotPathVersions is the delta-chain length: every version after the
// first is stored as a delta off its predecessor, so a stacked select of
// all versions exercises the full chain walk.
const HotPathVersions = 24

// hotPathChunkBytes keeps several chunks per version at bench scale so
// the worker pool has per-chunk work to fan out.
const hotPathChunkBytes = 32 << 10

// HotPath runs the hot-path experiment. parallelism and cacheBytes
// configure the tuned run; the baseline always runs with parallelism 1
// and the cache disabled (the seed behavior).
func HotPath(workDir string, sc Scale, parallelism int, cacheBytes int64) (Table, HotPathReport, error) {
	side := sc.NOAASide
	if side < 64 {
		side = 64
	}
	versions := HotPathSeries(side, sc.Seed)

	baseline, err := hotPathConfig(filepath.Join(workDir, "hotpath-serial"), "serial-nocache", versions, 1, 0)
	if err != nil {
		return Table{}, HotPathReport{}, err
	}
	baseline.Speedup = 1
	tuned, err := hotPathConfig(filepath.Join(workDir, "hotpath-tuned"), "parallel-cached", versions, parallelism, cacheBytes)
	if err != nil {
		return Table{}, HotPathReport{}, err
	}
	if tuned.WarmNsPerOp > 0 {
		tuned.Speedup = float64(baseline.WarmNsPerOp) / float64(tuned.WarmNsPerOp)
	}
	report := HotPathReport{
		Configs:       []HotPathResult{baseline, tuned},
		KernelVariant: bitpack.ActiveKernel().String(),
	}
	report.KernelScalarNs, report.KernelBatchedNs, err = kernelMicrobench()
	if err != nil {
		return Table{}, HotPathReport{}, err
	}
	if report.KernelBatchedNs > 0 {
		report.KernelSpeedup = float64(report.KernelScalarNs) / float64(report.KernelBatchedNs)
	}
	report.MmapSelectP99Ns, report.PlainSelectP99Ns, report.MmapEnabled, err =
		zeroCopySelectLatency(filepath.Join(workDir, "hotpath-zerocopy"), versions)
	if err != nil {
		return Table{}, HotPathReport{}, err
	}
	results := report.Configs

	t := Table{
		Title:   "Hot path — parallel chunk pipeline + decoded-chunk cache",
		Columns: []string{"Config", "Par.", "Cache", "Insert/op", "Cold sel.", "Warm sel.", "MB/s", "Hit rate", "Speedup"},
	}
	for _, r := range results {
		t.Rows = append(t.Rows, []string{
			r.Name,
			fmt.Sprintf("%d", r.Parallelism),
			fmtBytes(r.CacheBytes),
			fmtDur(time.Duration(r.InsertNsPerOp)),
			fmtDur(time.Duration(r.ColdNsPerOp)),
			fmtDur(time.Duration(r.WarmNsPerOp)),
			fmt.Sprintf("%.0f", r.WarmMBPerSec),
			fmt.Sprintf("%.2f", r.CacheHitRate),
			fmt.Sprintf("%.1fx", r.Speedup),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("SelectMulti over a %d-version delta chain of %dx%d int32 cells, %s chunks",
			HotPathVersions, side, side, fmtBytes(hotPathChunkBytes)),
		fmt.Sprintf("unpack kernel (%s): single-chunk decode %s batched vs %s scalar (%.1fx)",
			report.KernelVariant, fmtDur(time.Duration(report.KernelBatchedNs)),
			fmtDur(time.Duration(report.KernelScalarNs)), report.KernelSpeedup),
		fmt.Sprintf("uncached select p99: %s mmap vs %s read()+copy (mmap enabled: %v)",
			fmtDur(time.Duration(report.MmapSelectP99Ns)),
			fmtDur(time.Duration(report.PlainSelectP99Ns)), report.MmapEnabled))
	return t, report, nil
}

// kernelMicrobench times one chunk's worth of signed codes (the shape a
// delta plane stores) through the scalar reference kernel and the
// batched kernel. Best-of-rounds sheds scheduler noise; CI gates on
// batched holding a >=2x advantage.
func kernelMicrobench() (scalarNs, batchedNs int64, err error) {
	const n = hotPathChunkBytes / 4 // int32 cells per chunk
	rng := rand.New(rand.NewSource(5))
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(rng.Intn(1<<10)) - 1<<9
	}
	width := bitpack.MaxSignedWidth(vals)
	buf := bitpack.PackSigned(vals, width)
	out := make([]int64, n)
	measure := func(k bitpack.Kernel) (int64, error) {
		prev := bitpack.SetKernel(k)
		defer bitpack.SetKernel(prev)
		const rounds, iters = 5, 8
		best := int64(math.MaxInt64)
		for r := 0; r < rounds; r++ {
			start := time.Now()
			for it := 0; it < iters; it++ {
				if err := bitpack.UnpackSignedInto(buf, n, width, out); err != nil {
					return 0, err
				}
			}
			if ns := time.Since(start).Nanoseconds() / iters; ns < best {
				best = ns
			}
		}
		return best, nil
	}
	if scalarNs, err = measure(bitpack.KernelScalar); err != nil {
		return 0, 0, err
	}
	if batchedNs, err = measure(bitpack.KernelBatched); err != nil {
		return 0, 0, err
	}
	return scalarNs, batchedNs, nil
}

// zeroCopySelectLatency builds one on-disk chain and selects single
// versions through two uncached stores over it — mapping enabled and
// disabled — strictly interleaved so page-cache state and machine noise
// land on both sides. Returns each side's p99 select latency.
func zeroCopySelectLatency(dir string, versions []*array.Dense) (mmapP99, plainP99 int64, mmapOn bool, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, 0, false, err
	}
	opts := core.DefaultOptions()
	opts.ChunkBytes = hotPathChunkBytes
	opts.CacheBytes = 0 // every select pays the read path
	build, err := core.Open(dir, opts)
	if err != nil {
		return 0, 0, false, err
	}
	side := versions[0].Shape()[0]
	sch := array.Schema{
		Name:  "Chain",
		Dims:  []array.Dimension{{Name: "Y", Lo: 0, Hi: side - 1}, {Name: "X", Lo: 0, Hi: side - 1}},
		Attrs: []array.Attribute{{Name: "V", Type: array.Int32}},
	}
	if err := build.CreateArray(sch); err != nil {
		return 0, 0, false, err
	}
	ids := make([]int, len(versions))
	for i, v := range versions {
		if ids[i], err = build.Insert("Chain", core.DensePayload(v)); err != nil {
			return 0, 0, false, err
		}
	}
	if err := build.Close(); err != nil {
		return 0, 0, false, err
	}
	mm, err := core.Open(dir, opts)
	if err != nil {
		return 0, 0, false, err
	}
	defer mm.Close()
	plainOpts := opts
	plainOpts.DisableMmap = true
	pl, err := core.Open(dir, plainOpts)
	if err != nil {
		return 0, 0, false, err
	}
	defer pl.Close()

	const rounds = 8
	mmNs := make([]int64, 0, rounds*len(ids))
	plNs := make([]int64, 0, rounds*len(ids))
	sel := func(s *core.Store, sink *[]int64, id int) error {
		start := time.Now()
		_, err := s.Select("Chain", id)
		*sink = append(*sink, time.Since(start).Nanoseconds())
		return err
	}
	for r := 0; r < rounds; r++ {
		for _, id := range ids {
			// alternate which store goes first so warm-up effects cancel
			first, second := mm, pl
			fNs, sNs := &mmNs, &plNs
			if (r+id)%2 == 1 {
				first, second, fNs, sNs = pl, mm, &plNs, &mmNs
			}
			if err := sel(first, fNs, id); err != nil {
				return 0, 0, false, err
			}
			if err := sel(second, sNs, id); err != nil {
				return 0, 0, false, err
			}
		}
	}
	return p99(mmNs), p99(plNs), mm.Stats().MmapReads > 0, nil
}

// p99 returns the 99th-percentile sample (ceil rank).
func p99(ns []int64) int64 {
	if len(ns) == 0 {
		return 0
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	idx := (len(ns)*99 + 99) / 100
	if idx > len(ns) {
		idx = len(ns)
	}
	return ns[idx-1]
}

// HotPathSeries builds the hot-path workload: a smoothly evolving dense
// series of HotPathVersions versions, the shape that makes every version
// delta off its predecessor. Exported so the root-level
// BenchmarkSelectMultiChain* benchmarks measure the exact same workload
// as the avbench hotpath experiment.
func HotPathSeries(side, seed int64) []*array.Dense {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*array.Dense, HotPathVersions)
	cur := array.MustDense(array.Int32, []int64{side, side})
	for i := int64(0); i < cur.NumCells(); i++ {
		cur.SetBits(i, int64(rng.Intn(1000)))
	}
	for v := range out {
		out[v] = cur.Clone()
		for i := int64(0); i < cur.NumCells(); i++ {
			if rng.Float64() < 0.05 {
				cur.SetBits(i, cur.Bits(i)+int64(rng.Intn(5)-2))
			}
		}
	}
	return out
}

func hotPathConfig(dir, name string, versions []*array.Dense, parallelism int, cacheBytes int64) (HotPathResult, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return HotPathResult{}, err
	}
	opts := core.DefaultOptions()
	opts.ChunkBytes = hotPathChunkBytes
	opts.Parallelism = parallelism
	opts.CacheBytes = cacheBytes
	s, err := core.Open(dir, opts)
	if err != nil {
		return HotPathResult{}, err
	}
	side := versions[0].Shape()[0]
	sch := array.Schema{
		Name:  "Chain",
		Dims:  []array.Dimension{{Name: "Y", Lo: 0, Hi: side - 1}, {Name: "X", Lo: 0, Hi: side - 1}},
		Attrs: []array.Attribute{{Name: "V", Type: array.Int32}},
	}
	if err := s.CreateArray(sch); err != nil {
		return HotPathResult{}, err
	}
	ids := make([]int, len(versions))
	insertTime, err := timed(func() error {
		for i, v := range versions {
			id, err := s.Insert("Chain", core.DensePayload(v))
			if err != nil {
				return err
			}
			ids[i] = id
		}
		return nil
	})
	if err != nil {
		return HotPathResult{}, err
	}

	res := HotPathResult{
		Name:          name,
		Versions:      len(versions),
		Parallelism:   s.Options().Parallelism, // effective (0 fills to GOMAXPROCS)
		CacheBytes:    cacheBytes,
		InsertNsPerOp: insertTime.Nanoseconds() / int64(len(versions)),
	}
	info, err := s.Info("Chain")
	if err != nil {
		return HotPathResult{}, err
	}
	res.ChainChunks = info.NumChunks

	// reopen the store so the cold select really is cold: the inserts
	// above warm the decoded-chunk cache while sizing delta candidates
	s, err = core.Open(dir, opts)
	if err != nil {
		return HotPathResult{}, err
	}
	coldTime, err := timed(func() error {
		_, err := s.SelectMulti("Chain", ids)
		return err
	})
	if err != nil {
		return HotPathResult{}, err
	}
	res.ColdNsPerOp = coldTime.Nanoseconds()

	const iters = 5
	s.ResetStats()
	var stacked int64
	warmTime, err := timed(func() error {
		for i := 0; i < iters; i++ {
			d, err := s.SelectMulti("Chain", ids)
			if err != nil {
				return err
			}
			stacked = d.SizeBytes()
		}
		return nil
	})
	if err != nil {
		return HotPathResult{}, err
	}
	res.WarmNsPerOp = warmTime.Nanoseconds() / iters
	res.WarmMBPerSec = float64(stacked) * iters / warmTime.Seconds() / (1 << 20)
	stats := s.Stats()
	if lookups := stats.CacheHits + stats.CacheMisses; lookups > 0 {
		res.CacheHitRate = float64(stats.CacheHits) / float64(lookups)
	}
	return res, nil
}
