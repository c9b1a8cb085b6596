package server

import (
	"io"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"arrayvers/internal/core"
	"arrayvers/internal/trace"
)

// metrics tracks per-route request counters and a request latency
// histogram, rendered in Prometheus text exposition format by the
// /metrics handler next to the store's own families and counters.
type metrics struct {
	mu       sync.Mutex
	requests map[routeCode]int64
	duration *trace.Histogram // seconds

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
		duration: trace.NewHistogram(latencyBuckets),
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
	m.countOnly(route, code)
	m.duration.Observe(seconds)
}

// write renders /metrics: the server's request families, the store's
// own families, Go runtime gauges, and one avstored_store_<name> gauge
// per Store.Stats() counter.
func (m *metrics) write(w io.Writer, store *core.Store) {
	load := func(n *atomic.Int64) func(func(any, ...string)) {
		return func(emit func(any, ...string)) { emit(n.Load()) }
	}
	value := func(read func() any) func(func(any, ...string)) {
		return func(emit func(any, ...string)) { emit(read()) }
	}
	// one stop-the-world read per scrape serves both gauges that need it
	var ms runtime.MemStats
	readMem := sync.OnceFunc(func() { runtime.ReadMemStats(&ms) })
	fams := []trace.Family{
		{Name: "avstored_requests_total", Type: "counter", Help: "Requests served, by route and status code.",
			Read: m.readRequests},
		{Name: "avstored_request_duration_seconds", Type: "histogram", Help: "Request latency histogram.",
			Read: value(func() any { return m.duration })},
		{Name: "avstored_requests_in_flight", Type: "gauge", Help: "Requests currently being served.",
			Read: load(&m.inFlight)},
		{Name: "avstored_requests_rejected_total", Type: "counter", Help: "Requests rejected with 429 by the in-flight limit.",
			Read: load(&m.rejected)},
		{Name: "avstored_zero_copy_frames_total", Type: "counter", Help: "Dense reply frames written as their chunks.",
			Read: load(&m.zcFrames)},
		{Name: "avstored_zero_copy_bytes_total", Type: "counter", Help: "Cell bytes written straight from a chunk buffer.",
			Read: load(&m.zcBytes)},
	}
	fams = append(fams, store.Metrics()...)
	// runtime health, so a scrape catches goroutine leaks, heap growth
	// and GC pressure without pprof
	fams = append(fams,
		trace.Family{Name: "av_go_goroutines", Type: "gauge", Help: "Number of live goroutines.",
			Read: value(func() any { return runtime.NumGoroutine() })},
		trace.Family{Name: "av_go_heap_bytes", Type: "gauge", Help: "Bytes of allocated heap objects.",
			Read: value(func() any { readMem(); return ms.HeapAlloc })},
		trace.Family{Name: "av_go_gc_pause_seconds_total", Type: "counter", Help: "Cumulative GC stop-the-world pause time.",
			Read: value(func() any { readMem(); return float64(ms.PauseTotalNs) / 1e9 })},
		trace.Family{Name: "av_go_gomaxprocs", Type: "gauge", Help: "The GOMAXPROCS setting.",
			Read: value(func() any { return runtime.GOMAXPROCS(0) })},
	)
	trace.Fields(store.Stats(), func(name string, n int64) {
		fams = append(fams, trace.Family{Name: "avstored_store_" + name, Type: "gauge", Help: "Store counter " + name + " (Store.Stats()).",
			Read: value(func() any { return n })})
	})
	trace.WriteText(w, fams)
}

// readRequests emits the per-route request counters in route, then
// code order.
func (m *metrics) readRequests(emit func(any, ...string)) {
	type row struct {
		routeCode
		n int64
	}
	m.mu.Lock()
	rows := make([]row, 0, len(m.requests))
	for k, n := range m.requests {
		rows = append(rows, row{k, n})
	}
	m.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].route != rows[j].route {
			return rows[i].route < rows[j].route
		}
		return rows[i].code < rows[j].code
	})
	for _, r := range rows {
		emit(r.n, "route", r.route, "code", strconv.Itoa(r.code))
	}
}
