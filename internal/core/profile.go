package core

import (
	"context"
	"sort"
	"sync/atomic"
	"time"

	"arrayvers/internal/trace"
)

// Stage names for the two instrumented pipelines. Select stages are the
// leaf operations of resolveRegion/resolveDenseChunk — each delta-chain
// link times its own cache probe, blob read, frame decode, and delta
// apply, so totals add up without double counting across the walk.
// Commit stages follow one write from staging through its commit
// record.
const (
	StageSnapshot    = "snapshot"    // metadata view under the store lock
	StageCache       = "cache"       // store-wide LRU probe
	StageRead        = "read"        // chunk blob read from disk
	StageDecode      = "decode"      // frame unseal + native decode
	StageDelta       = "delta"       // delta-chain apply
	StageMaterialize = "materialize" // slice + copy into the result array

	StageCut         = "cut"          // dense payload planes cut into chunks, before the latch
	StageStageEncode = "stage_encode" // resolve + encode + unsynced append
	StageQueueWait   = "queue_wait"   // wait for the write latches of every array written
	StageDataFsync   = "data_fsync"   // fsync of the write's chunk files
	StageMetaCommit  = "meta_commit"  // manifest-log append
	StageInstall     = "install"      // in-memory install of the committed doc
)

// selectStageOrder / commitStageOrder fix the pipeline order for metric
// exposition and EXPLAIN output.
var (
	selectStageOrder = []string{StageSnapshot, StageCache, StageRead, StageDecode, StageDelta, StageMaterialize}
	commitStageOrder = []string{StageCut, StageStageEncode, StageQueueWait, StageDataFsync, StageMetaCommit, StageInstall}
)

// stageLatencyBounds spans the per-chunk micro-operations (tens of
// microseconds) through fsync-bound commit stages (tens of
// milliseconds) up to whole slow queries.
var stageLatencyBounds = []float64{0.00001, 0.0001, 0.0005, 0.001, 0.005, 0.025, 0.1, 0.5, 2.5}

// batchSizeBounds buckets the versions one commit record installs.
var batchSizeBounds = []float64{1, 2, 4, 8, 16, 32, 64}

// tunePassBounds buckets Tune pass durations.
var tunePassBounds = []float64{0.001, 0.01, 0.1, 0.5, 2.5, 10}

// stageMetric is one stage's always-on aggregate: a latency histogram
// plus a byte counter.
type stageMetric struct {
	hist  *trace.Histogram
	bytes atomic.Int64
}

// profile is the store's always-on instrumentation state. Everything in
// it is atomic or internally locked, so the hot paths record without
// taking any store lock.
type profile struct {
	selStages map[string]*stageMetric
	comStages map[string]*stageMetric
	batchSize *trace.Histogram
	tunePass  *trace.Histogram
	// decodeActive gauges chunk workers currently inside the select
	// fan-out (the decode-pool occupancy).
	decodeActive atomic.Int64
	// recoveryNanos is what Open-time crash recovery took (0 when it
	// did not run). Fixed at Open.
	recoveryNanos atomic.Int64
}

func newProfile() *profile {
	p := &profile{
		selStages: make(map[string]*stageMetric, len(selectStageOrder)),
		comStages: make(map[string]*stageMetric, len(commitStageOrder)),
		batchSize: trace.NewHistogram(batchSizeBounds),
		tunePass:  trace.NewHistogram(tunePassBounds),
	}
	for _, st := range selectStageOrder {
		p.selStages[st] = &stageMetric{hist: trace.NewHistogram(stageLatencyBounds)}
	}
	for _, st := range commitStageOrder {
		p.comStages[st] = &stageMetric{hist: trace.NewHistogram(stageLatencyBounds)}
	}
	return p
}

// observeCommit records one write-path stage, timed from since, in the
// store's histograms and in tr (nil-safe).
func (s *Store) observeCommit(tr *trace.Trace, stage string, since time.Time, bytes int64) {
	d := time.Since(since)
	m := s.prof.comStages[stage]
	m.hist.Observe(d.Seconds())
	m.bytes.Add(bytes)
	tr.Observe(stage, d, bytes)
}

// opTracker routes one select's stage observations to both the
// store-wide profile histograms and, when the request carried one, its
// trace. A nil tracker is a no-op, so internal readers (recovery,
// verify, Tune's history scans) stay out of the query-path
// histograms by passing nil.
type opTracker struct {
	stages map[string]*stageMetric
	tr     *trace.Trace
}

// selTracker builds the select-path tracker for one query, picking up
// the request trace from ctx if present.
func (s *Store) selTracker(ctx context.Context) *opTracker {
	return &opTracker{stages: s.prof.selStages, tr: trace.FromContext(ctx)}
}

// observe records one stage observation. Safe on a nil tracker and
// from concurrent chunk workers.
func (t *opTracker) observe(stage string, d time.Duration, bytes int64) {
	if t == nil {
		return
	}
	m := t.stages[stage]
	m.hist.Observe(d.Seconds())
	if bytes != 0 {
		m.bytes.Add(bytes)
	}
	t.tr.Observe(stage, d, bytes)
}

// attr bumps a trace attribute (no profile analog). Safe on nil.
func (t *opTracker) attr(name string, v int64) {
	if t == nil {
		return
	}
	t.tr.Add(name, v)
}

// Metrics declares the store's metric families: the select and commit
// stage histograms and byte totals, the versions-per-commit-record and
// Tune-pass histograms, the decode-pool and recovery gauges, and the
// query-path cache counters of every live array.
func (s *Store) Metrics() []trace.Family {
	p := s.prof
	stageHists := func(order []string, m map[string]*stageMetric) func(func(any, ...string)) {
		return func(emit func(any, ...string)) {
			for _, st := range order {
				emit(m[st].hist, "stage", st)
			}
		}
	}
	stageBytes := func(order []string, m map[string]*stageMetric) func(func(any, ...string)) {
		return func(emit func(any, ...string)) {
			for _, st := range order {
				emit(m[st].bytes.Load(), "stage", st)
			}
		}
	}
	perArray := func(value func(hits, misses int64) any) func(func(any, ...string)) {
		return func(emit func(any, ...string)) {
			for _, st := range s.liveArrays() {
				emit(value(st.cacheHits.Load(), st.cacheMisses.Load()), "array", st.Schema.Name)
			}
		}
	}
	return []trace.Family{
		{Name: "av_select_stage_seconds", Type: "histogram", Help: "Select pipeline latency by stage (snapshot, cache, read, decode, delta, materialize).",
			Read: stageHists(selectStageOrder, p.selStages)},
		{Name: "av_select_stage_bytes_total", Type: "counter", Help: "Bytes handled by each select pipeline stage.",
			Read: stageBytes(selectStageOrder, p.selStages)},
		{Name: "av_commit_stage_seconds", Type: "histogram", Help: "Write pipeline latency by stage (stage_encode, queue_wait = the wait for the write latches, data_fsync, meta_commit, install).",
			Read: stageHists(commitStageOrder, p.comStages)},
		{Name: "av_commit_stage_bytes_total", Type: "counter", Help: "Bytes handled by each commit pipeline stage.",
			Read: stageBytes(commitStageOrder, p.comStages)},
		{Name: "av_group_commit_batch_size", Type: "histogram", Help: "Versions installed per write commit record.",
			Read: func(emit func(any, ...string)) { emit(p.batchSize) }},
		{Name: "av_tune_pass_seconds", Type: "histogram", Help: "Tune pass duration.",
			Read: func(emit func(any, ...string)) { emit(p.tunePass) }},
		{Name: "av_decode_pool_active", Type: "gauge", Help: "Decode-pool workers currently resolving chunks.",
			Read: func(emit func(any, ...string)) { emit(p.decodeActive.Load()) }},
		{Name: "av_recovery_seconds", Type: "gauge", Help: "Duration of crash recovery at the last open (0 when not durable).",
			Read: func(emit func(any, ...string)) { emit(time.Duration(p.recoveryNanos.Load()).Seconds()) }},
		{Name: "av_cache_hits_total", Type: "counter", Help: "Decoded-chunk cache hits on the query path, by array.",
			Read: perArray(func(hits, _ int64) any { return hits })},
		{Name: "av_cache_misses_total", Type: "counter", Help: "Decoded-chunk cache misses on the query path, by array.",
			Read: perArray(func(_, misses int64) any { return misses })},
		{Name: "av_cache_hit_ratio", Type: "gauge", Help: "Query-path cache hit ratio since the array was created or opened, by array.",
			Read: perArray(func(hits, misses int64) any {
				if hits+misses == 0 {
					return 0.0
				}
				return float64(hits) / float64(hits+misses)
			})},
	}
}

// liveArrays returns the store's arrays in name order.
func (s *Store) liveArrays() []*arrayState {
	s.mu.RLock()
	sts := make([]*arrayState, 0, len(s.arrays))
	for _, st := range s.arrays {
		sts = append(sts, st)
	}
	s.mu.RUnlock()
	sort.Slice(sts, func(i, j int) bool { return sts[i].Schema.Name < sts[j].Schema.Name })
	return sts
}
