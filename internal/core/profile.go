package core

import (
	"context"
	"sort"
	"sync"
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
	commitStageOrder = []string{StageStageEncode, StageQueueWait, StageDataFsync, StageMetaCommit, StageInstall}
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
	// cacheByArray maps array name -> *arrayCacheCounters for the
	// per-array hit-ratio series.
	cacheByArray sync.Map
}

type arrayCacheCounters struct {
	hits   atomic.Int64
	misses atomic.Int64
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

func (p *profile) observeCommit(stage string, d time.Duration, bytes int64) {
	m := p.comStages[stage]
	m.hist.Observe(d.Seconds())
	if bytes != 0 {
		m.bytes.Add(bytes)
	}
}

// cacheAccess bumps the per-array cache hit/miss counters.
func (p *profile) cacheAccess(array string, hit bool) {
	got, ok := p.cacheByArray.Load(array)
	if !ok {
		got, _ = p.cacheByArray.LoadOrStore(array, &arrayCacheCounters{})
	}
	c := got.(*arrayCacheCounters)
	if hit {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
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

// StageProfile is one pipeline stage's aggregate in a ProfileSnapshot.
type StageProfile struct {
	Stage string
	Hist  trace.HistSnapshot
	Bytes int64
}

// ArrayCacheProfile is one array's decoded-chunk cache traffic.
type ArrayCacheProfile struct {
	Array  string
	Hits   int64
	Misses int64
}

// ProfileSnapshot is a point-in-time copy of the store's stage-level
// instrumentation, rendered by the daemon's /metrics handler. Stage
// slices follow pipeline order; ArrayCaches is sorted by array name.
type ProfileSnapshot struct {
	SelectStages []StageProfile
	CommitStages []StageProfile
	GroupBatch   trace.HistSnapshot
	TunePass     trace.HistSnapshot
	DecodeActive int64
	// RecoverySeconds is how long Open-time crash recovery took (0 when
	// the store opened without Durability).
	RecoverySeconds float64
	ArrayCaches     []ArrayCacheProfile
}

// Profile snapshots the store's stage-level latency/byte aggregates,
// the versions-per-commit-record and Tune-pass histograms, the
// decode-pool gauge, and the per-array cache counters.
func (s *Store) Profile() ProfileSnapshot {
	p := s.prof
	snap := ProfileSnapshot{
		GroupBatch:      p.batchSize.Snapshot(),
		TunePass:        p.tunePass.Snapshot(),
		DecodeActive:    p.decodeActive.Load(),
		RecoverySeconds: time.Duration(p.recoveryNanos.Load()).Seconds(),
	}
	for _, st := range selectStageOrder {
		m := p.selStages[st]
		snap.SelectStages = append(snap.SelectStages, StageProfile{Stage: st, Hist: m.hist.Snapshot(), Bytes: m.bytes.Load()})
	}
	for _, st := range commitStageOrder {
		m := p.comStages[st]
		snap.CommitStages = append(snap.CommitStages, StageProfile{Stage: st, Hist: m.hist.Snapshot(), Bytes: m.bytes.Load()})
	}
	p.cacheByArray.Range(func(k, v any) bool {
		c := v.(*arrayCacheCounters)
		snap.ArrayCaches = append(snap.ArrayCaches, ArrayCacheProfile{
			Array:  k.(string),
			Hits:   c.hits.Load(),
			Misses: c.misses.Load(),
		})
		return true
	})
	sort.Slice(snap.ArrayCaches, func(i, j int) bool { return snap.ArrayCaches[i].Array < snap.ArrayCaches[j].Array })
	return snap
}
