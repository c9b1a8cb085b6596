package server

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"arrayvers/internal/cliutil"
	"arrayvers/internal/core"
	"arrayvers/internal/trace"
)

// metrics tracks per-route request counters and a request latency
// histogram, rendered in Prometheus text exposition format by the
// /metrics handler next to the store's own Stats() counters.
type metrics struct {
	mu       sync.Mutex
	requests map[routeCode]int64
	buckets  []int64 // one per latencyBuckets entry, plus +Inf at the end
	count    int64
	sum      float64 // seconds

	inFlight atomic.Int64
	rejected atomic.Int64 // 429s from the in-flight semaphore

	// zcFrames counts dense reply frames (wire.WriteChunked); zcBytes
	// counts the cell bytes among them written straight from a chunk
	// buffer, with no copy by the server.
	zcFrames atomic.Int64
	zcBytes  atomic.Int64
}

// addZeroCopy records one dense reply frame that wrote n cell bytes
// straight from chunk buffers.
func (m *metrics) addZeroCopy(n int64) {
	m.zcFrames.Add(1)
	m.zcBytes.Add(n)
}

type routeCode struct {
	route string
	code  int
}

// latencyBuckets are the histogram upper bounds in seconds.
var latencyBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10}

func newMetrics() *metrics {
	return &metrics{
		requests: make(map[routeCode]int64),
		buckets:  make([]int64, len(latencyBuckets)+1),
	}
}

// countOnly records a request in the per-route counters without a
// latency observation — used for shed (429) requests, which would
// otherwise flood the histogram with zero-duration samples exactly when
// the latency numbers matter most.
func (m *metrics) countOnly(route string, code int) {
	m.mu.Lock()
	m.requests[routeCode{route, code}]++
	m.mu.Unlock()
}

func (m *metrics) observe(route string, code int, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[routeCode{route, code}]++
	m.count++
	m.sum += seconds
	for i, le := range latencyBuckets {
		if seconds <= le {
			m.buckets[i]++
			return
		}
	}
	m.buckets[len(latencyBuckets)]++
}

// write renders the Prometheus text format: request counters, the
// latency histogram, gauges, the engine's stage-level profile, Go
// runtime stats, and the store's I/O and cache counters.
func (m *metrics) write(w io.Writer, stats core.IOStats, prof core.ProfileSnapshot) {
	m.mu.Lock()
	keys := make([]routeCode, 0, len(m.requests))
	for k := range m.requests {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].route != keys[j].route {
			return keys[i].route < keys[j].route
		}
		return keys[i].code < keys[j].code
	})
	fmt.Fprintf(w, "# HELP avstored_requests_total Requests served, by route and status code.\n")
	fmt.Fprintf(w, "# TYPE avstored_requests_total counter\n")
	for _, k := range keys {
		fmt.Fprintf(w, "avstored_requests_total{route=%q,code=\"%d\"} %d\n", k.route, k.code, m.requests[k])
	}
	fmt.Fprintf(w, "# HELP avstored_request_duration_seconds Request latency histogram.\n")
	fmt.Fprintf(w, "# TYPE avstored_request_duration_seconds histogram\n")
	cum := int64(0)
	for i, le := range latencyBuckets {
		cum += m.buckets[i]
		fmt.Fprintf(w, "avstored_request_duration_seconds_bucket{le=\"%g\"} %d\n", le, cum)
	}
	cum += m.buckets[len(latencyBuckets)]
	fmt.Fprintf(w, "avstored_request_duration_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "avstored_request_duration_seconds_sum %g\n", m.sum)
	fmt.Fprintf(w, "avstored_request_duration_seconds_count %d\n", m.count)
	m.mu.Unlock()

	fmt.Fprintf(w, "# HELP avstored_requests_in_flight Requests currently being served.\n")
	fmt.Fprintf(w, "# TYPE avstored_requests_in_flight gauge\n")
	fmt.Fprintf(w, "avstored_requests_in_flight %d\n", m.inFlight.Load())
	fmt.Fprintf(w, "# HELP avstored_requests_rejected_total Requests rejected with 429 by the in-flight limit.\n")
	fmt.Fprintf(w, "# TYPE avstored_requests_rejected_total counter\n")
	fmt.Fprintf(w, "avstored_requests_rejected_total %d\n", m.rejected.Load())
	fmt.Fprintf(w, "# HELP avstored_zero_copy_frames_total Dense reply frames written as their chunks.\n")
	fmt.Fprintf(w, "# TYPE avstored_zero_copy_frames_total counter\n")
	fmt.Fprintf(w, "avstored_zero_copy_frames_total %d\n", m.zcFrames.Load())
	fmt.Fprintf(w, "# HELP avstored_zero_copy_bytes_total Cell bytes written straight from a chunk buffer.\n")
	fmt.Fprintf(w, "# TYPE avstored_zero_copy_bytes_total counter\n")
	fmt.Fprintf(w, "avstored_zero_copy_bytes_total %d\n", m.zcBytes.Load())

	writeProfile(w, prof)
	writeRuntime(w)

	for _, c := range cliutil.StatsCounters(stats) {
		fmt.Fprintf(w, "# HELP avstored_store_%s Store counter %s (Store.Stats()).\n", c.Name, c.Name)
		fmt.Fprintf(w, "# TYPE avstored_store_%s gauge\n", c.Name)
		fmt.Fprintf(w, "avstored_store_%s %d\n", c.Name, c.Value)
	}
}

// writeHist renders one trace.HistSnapshot as a Prometheus histogram,
// with an optional fixed label pair on every series.
func writeHist(w io.Writer, name, labels string, h trace.HistSnapshot) {
	sep := func() string {
		if labels == "" {
			return ""
		}
		return ","
	}()
	cum := int64(0)
	for i, le := range h.Bounds {
		cum += h.Counts[i]
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%g\"} %d\n", name, labels, sep, le, cum)
	}
	cum += h.Counts[len(h.Bounds)]
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, cum)
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %g\n", name, h.Sum)
		fmt.Fprintf(w, "%s_count %d\n", name, h.Count)
	} else {
		fmt.Fprintf(w, "%s_sum{%s} %g\n", name, labels, h.Sum)
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, h.Count)
	}
}

// writeProfile renders the store's stage-level instrumentation: select
// and commit pipeline stage latency histograms and byte totals, the
// versions-per-commit-record and Tune-pass histograms, the decode-pool
// gauge, recovery duration, and per-array cache hit/miss counters.
func writeProfile(w io.Writer, prof core.ProfileSnapshot) {
	fmt.Fprintf(w, "# HELP av_select_stage_seconds Select pipeline latency by stage (snapshot, cache, read, decode, delta, materialize).\n")
	fmt.Fprintf(w, "# TYPE av_select_stage_seconds histogram\n")
	for _, st := range prof.SelectStages {
		writeHist(w, "av_select_stage_seconds", fmt.Sprintf("stage=%q", st.Stage), st.Hist)
	}
	fmt.Fprintf(w, "# HELP av_select_stage_bytes_total Bytes handled by each select pipeline stage.\n")
	fmt.Fprintf(w, "# TYPE av_select_stage_bytes_total counter\n")
	for _, st := range prof.SelectStages {
		fmt.Fprintf(w, "av_select_stage_bytes_total{stage=%q} %d\n", st.Stage, st.Bytes)
	}
	fmt.Fprintf(w, "# HELP av_commit_stage_seconds Write pipeline latency by stage (stage_encode, queue_wait = the wait for the write latches, data_fsync, meta_commit, install).\n")
	fmt.Fprintf(w, "# TYPE av_commit_stage_seconds histogram\n")
	for _, st := range prof.CommitStages {
		writeHist(w, "av_commit_stage_seconds", fmt.Sprintf("stage=%q", st.Stage), st.Hist)
	}
	fmt.Fprintf(w, "# HELP av_commit_stage_bytes_total Bytes handled by each commit pipeline stage.\n")
	fmt.Fprintf(w, "# TYPE av_commit_stage_bytes_total counter\n")
	for _, st := range prof.CommitStages {
		fmt.Fprintf(w, "av_commit_stage_bytes_total{stage=%q} %d\n", st.Stage, st.Bytes)
	}
	fmt.Fprintf(w, "# HELP av_group_commit_batch_size Versions installed per write commit record.\n")
	fmt.Fprintf(w, "# TYPE av_group_commit_batch_size histogram\n")
	writeHist(w, "av_group_commit_batch_size", "", prof.GroupBatch)
	fmt.Fprintf(w, "# HELP av_tune_pass_seconds Tune pass duration.\n")
	fmt.Fprintf(w, "# TYPE av_tune_pass_seconds histogram\n")
	writeHist(w, "av_tune_pass_seconds", "", prof.TunePass)
	fmt.Fprintf(w, "# HELP av_decode_pool_active Decode-pool workers currently resolving chunks.\n")
	fmt.Fprintf(w, "# TYPE av_decode_pool_active gauge\n")
	fmt.Fprintf(w, "av_decode_pool_active %d\n", prof.DecodeActive)
	fmt.Fprintf(w, "# HELP av_recovery_seconds Duration of crash recovery at the last open (0 when not durable).\n")
	fmt.Fprintf(w, "# TYPE av_recovery_seconds gauge\n")
	fmt.Fprintf(w, "av_recovery_seconds %g\n", prof.RecoverySeconds)
	fmt.Fprintf(w, "# HELP av_cache_hits_total Decoded-chunk cache hits on the query path, by array.\n")
	fmt.Fprintf(w, "# TYPE av_cache_hits_total counter\n")
	for _, c := range prof.ArrayCaches {
		fmt.Fprintf(w, "av_cache_hits_total{array=%q} %d\n", c.Array, c.Hits)
	}
	fmt.Fprintf(w, "# HELP av_cache_misses_total Decoded-chunk cache misses on the query path, by array.\n")
	fmt.Fprintf(w, "# TYPE av_cache_misses_total counter\n")
	for _, c := range prof.ArrayCaches {
		fmt.Fprintf(w, "av_cache_misses_total{array=%q} %d\n", c.Array, c.Misses)
	}
	fmt.Fprintf(w, "# HELP av_cache_hit_ratio Query-path cache hit ratio since start, by array.\n")
	fmt.Fprintf(w, "# TYPE av_cache_hit_ratio gauge\n")
	for _, c := range prof.ArrayCaches {
		total := c.Hits + c.Misses
		ratio := 0.0
		if total > 0 {
			ratio = float64(c.Hits) / float64(total)
		}
		fmt.Fprintf(w, "av_cache_hit_ratio{array=%q} %g\n", c.Array, ratio)
	}
}

// writeRuntime renders Go runtime health gauges so a scrape catches
// goroutine leaks, heap growth, and GC pressure without pprof.
func writeRuntime(w io.Writer) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(w, "# HELP av_go_goroutines Number of live goroutines.\n")
	fmt.Fprintf(w, "# TYPE av_go_goroutines gauge\n")
	fmt.Fprintf(w, "av_go_goroutines %d\n", runtime.NumGoroutine())
	fmt.Fprintf(w, "# HELP av_go_heap_bytes Bytes of allocated heap objects.\n")
	fmt.Fprintf(w, "# TYPE av_go_heap_bytes gauge\n")
	fmt.Fprintf(w, "av_go_heap_bytes %d\n", ms.HeapAlloc)
	fmt.Fprintf(w, "# HELP av_go_gc_pause_seconds_total Cumulative GC stop-the-world pause time.\n")
	fmt.Fprintf(w, "# TYPE av_go_gc_pause_seconds_total counter\n")
	fmt.Fprintf(w, "av_go_gc_pause_seconds_total %g\n", float64(ms.PauseTotalNs)/1e9)
	fmt.Fprintf(w, "# HELP av_go_gomaxprocs The GOMAXPROCS setting.\n")
	fmt.Fprintf(w, "# TYPE av_go_gomaxprocs gauge\n")
	fmt.Fprintf(w, "av_go_gomaxprocs %d\n", runtime.GOMAXPROCS(0))
}
