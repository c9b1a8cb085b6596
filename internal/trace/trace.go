// Package trace is the repo's zero-dependency request-tracing
// substrate: a lightweight span recorder carried through
// context.Context, plus the two aggregate shapes built on it — an
// atomic-bucket histogram for always-on stage metrics and a bounded
// ring of completed trace summaries for the /debug/traces endpoint —
// and the one Prometheus text writer, which renders every metric
// family from its declaration (metrics.go).
//
// A Trace accumulates wall time and bytes per named pipeline stage
// (snapshot, cache, decode, ... on the select path; stage_encode,
// data_fsync, ... on the commit path). All Trace methods are nil-safe,
// so instrumented code records unconditionally and an untraced request
// costs only a nil check.
package trace

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// NewID returns a fresh 128-bit random trace ID in lowercase hex — the
// value carried in the AV-Trace-Id header.
func NewID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is unrecoverable for the process anyway;
		// fall back to a fixed ID rather than panic in a logging path
		return "00000000000000000000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// Trace accumulates per-stage wall time and bytes for one request. A
// nil *Trace is a valid no-op recorder.
type Trace struct {
	id    string
	name  string
	start time.Time

	mu     sync.Mutex
	order  []string // stage names in first-observation order
	stages map[string]*stageAcc
	attrs  map[string]int64
}

type stageAcc struct {
	count int64
	nanos int64
	bytes int64
}

// New starts a trace with a fresh ID.
func New(name string) *Trace { return Join(NewID(), name) }

// Join starts a trace that continues the caller-supplied ID (the wire
// propagation case); an empty id gets a fresh one.
func Join(id, name string) *Trace {
	if id == "" {
		id = NewID()
	}
	return &Trace{
		id:     id,
		name:   name,
		start:  time.Now(),
		stages: make(map[string]*stageAcc),
		attrs:  make(map[string]int64),
	}
}

// ID returns the trace ID ("" for a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Observe adds one stage observation: d of wall time and bytes of
// payload attributed to stage. Safe on a nil trace and from concurrent
// chunk workers.
func (t *Trace) Observe(stage string, d time.Duration, bytes int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	acc, ok := t.stages[stage]
	if !ok {
		acc = &stageAcc{}
		t.stages[stage] = acc
		t.order = append(t.order, stage)
	}
	acc.count++
	acc.nanos += d.Nanoseconds()
	acc.bytes += bytes
	t.mu.Unlock()
}

// Add accumulates a numeric attribute (cache_hits, chunks_decoded, ...)
// on the trace. Safe on a nil trace and from concurrent workers.
func (t *Trace) Add(attr string, v int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.attrs[attr] += v
	t.mu.Unlock()
}

// Finish snapshots the trace into its immutable completed form, with
// the total duration measured from Join to now. The trace may keep
// receiving observations (late workers); Finish can be called again.
func (t *Trace) Finish() Summary {
	if t == nil {
		return Summary{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sum := Summary{
		ID:         t.id,
		Name:       t.name,
		Start:      t.start,
		DurationNs: time.Since(t.start).Nanoseconds(),
	}
	for _, stage := range t.order {
		acc := t.stages[stage]
		sum.Stages = append(sum.Stages, StageSummary{
			Stage: stage,
			Count: acc.count,
			Nanos: acc.nanos,
			Bytes: acc.bytes,
		})
	}
	if len(t.attrs) > 0 {
		sum.Attrs = make(map[string]int64, len(t.attrs))
		for k, v := range t.attrs {
			sum.Attrs[k] = v
		}
	}
	return sum
}

// Summary is one completed trace, as served by /debug/traces and
// printed by `avstore select -trace`.
type Summary struct {
	ID         string           `json:"id"`
	Name       string           `json:"name"`
	Start      time.Time        `json:"start"`
	DurationNs int64            `json:"duration_ns"`
	Stages     []StageSummary   `json:"stages,omitempty"`
	Attrs      map[string]int64 `json:"attrs,omitempty"`
}

// StageSummary aggregates every observation of one stage within a
// trace: how many times it ran, total wall time, total bytes.
type StageSummary struct {
	Stage string `json:"stage"`
	Count int64  `json:"count"`
	Nanos int64  `json:"nanos"`
	Bytes int64  `json:"bytes"`
}

type ctxKey struct{}

// NewContext attaches t to ctx; the instrumented pipelines retrieve it
// with FromContext. Attaching nil returns ctx unchanged.
func NewContext(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the trace attached to ctx, or nil (which every
// Trace method accepts).
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}

// Histogram is a fixed-bucket histogram with atomic counters, cheap
// enough for per-chunk observations on the select hot path. Bounds are
// upper bucket bounds in ascending order; one overflow bucket is added.
// The zero unit is whatever the caller observes (seconds for latency
// histograms, versions per commit record).
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; last is +Inf
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
}

// NewHistogram builds a histogram over the given ascending upper
// bounds.
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Snapshot returns a consistent-enough copy for metric exposition
// (buckets are read individually; a scrape racing an Observe may be off
// by one observation, which Prometheus semantics tolerate).
func (h *Histogram) Snapshot() HistSnapshot {
	snap := HistSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Sum:    math.Float64frombits(h.sumBits.Load()),
		Count:  h.count.Load(),
	}
	for i := range h.counts {
		snap.Counts[i] = h.counts[i].Load()
	}
	return snap
}

// HistSnapshot is a point-in-time histogram copy. Counts are
// per-bucket (NOT cumulative); Counts[len(Bounds)] is the overflow
// bucket. Renderers emitting Prometheus text format accumulate them
// into the cumulative `le` form.
type HistSnapshot struct {
	Bounds []float64
	Counts []int64
	Sum    float64
	Count  int64
}

// Ring is a bounded ring of completed trace summaries — the backing
// store for GET /debug/traces. Adds overwrite the oldest entry.
type Ring struct {
	mu   sync.Mutex
	buf  []Summary
	next int
	size int
}

// NewRing builds a ring holding up to capacity summaries (minimum 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]Summary, capacity)}
}

// Add records one completed trace.
func (r *Ring) Add(s Summary) {
	r.mu.Lock()
	r.buf[r.next] = s
	r.next = (r.next + 1) % len(r.buf)
	if r.size < len(r.buf) {
		r.size++
	}
	r.mu.Unlock()
}

// Snapshot returns the retained summaries, newest first.
func (r *Ring) Snapshot() []Summary {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Summary, 0, r.size)
	for i := 1; i <= r.size; i++ {
		out = append(out, r.buf[(r.next-i+len(r.buf))%len(r.buf)])
	}
	return out
}

// Find returns the newest retained summary with the given trace ID.
func (r *Ring) Find(id string) (Summary, bool) {
	for _, s := range r.Snapshot() {
		if s.ID == id {
			return s, true
		}
	}
	return Summary{}, false
}
