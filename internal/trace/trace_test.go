package trace

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNewIDShapeAndUniqueness(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		id := NewID()
		if len(id) != 32 {
			t.Fatalf("NewID() = %q, want 32 hex chars", id)
		}
		for _, c := range id {
			if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
				t.Fatalf("NewID() = %q contains non-hex %q", id, c)
			}
		}
		if seen[id] {
			t.Fatalf("NewID() repeated %q", id)
		}
		seen[id] = true
	}
}

func TestNilTraceIsNoOp(t *testing.T) {
	var tr *Trace
	tr.Observe("cache", time.Millisecond, 10) // must not panic
	tr.Add("cache_hits", 1)
	if got := tr.ID(); got != "" {
		t.Fatalf("nil trace ID = %q, want empty", got)
	}
	if sum := tr.Finish(); len(sum.Stages) != 0 || sum.ID != "" {
		t.Fatalf("nil trace Finish = %+v, want zero", sum)
	}
}

func TestObserveAccumulates(t *testing.T) {
	tr := Join("abc", "select")
	tr.Observe("decode", 2*time.Millisecond, 100)
	tr.Observe("decode", 3*time.Millisecond, 50)
	tr.Observe("cache", time.Microsecond, 0)
	tr.Add("cache_hits", 2)
	tr.Add("cache_hits", 1)
	sum := tr.Finish()
	if sum.ID != "abc" || sum.Name != "select" {
		t.Fatalf("summary identity = %q/%q", sum.ID, sum.Name)
	}
	if len(sum.Stages) != 2 {
		t.Fatalf("got %d stages, want 2", len(sum.Stages))
	}
	// first-observation order is preserved
	if sum.Stages[0].Stage != "decode" || sum.Stages[1].Stage != "cache" {
		t.Fatalf("stage order = %v", sum.Stages)
	}
	d := sum.Stages[0]
	if d.Count != 2 || d.Nanos != (5*time.Millisecond).Nanoseconds() || d.Bytes != 150 {
		t.Fatalf("decode stage = %+v", d)
	}
	if sum.Attrs["cache_hits"] != 3 {
		t.Fatalf("attrs = %v", sum.Attrs)
	}
	if sum.DurationNs <= 0 {
		t.Fatalf("duration = %d, want > 0", sum.DurationNs)
	}
}

func TestContextRoundTrip(t *testing.T) {
	if got := FromContext(context.Background()); got != nil {
		t.Fatalf("FromContext(empty) = %v, want nil", got)
	}
	tr := New("q")
	ctx := NewContext(context.Background(), tr)
	if got := FromContext(ctx); got != tr {
		t.Fatalf("FromContext did not round-trip")
	}
	// attaching nil leaves the context untouched
	if ctx2 := NewContext(context.Background(), nil); FromContext(ctx2) != nil {
		t.Fatal("NewContext(nil) attached a value")
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	snap := h.Snapshot()
	want := []int64{2, 1, 1, 1} // le=0.01 gets 0.005 and 0.01 (upper bound inclusive)
	if len(snap.Counts) != len(want) {
		t.Fatalf("got %d buckets, want %d", len(snap.Counts), len(want))
	}
	for i, w := range want {
		if snap.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, snap.Counts[i], w, snap.Counts)
		}
	}
	if snap.Count != 5 {
		t.Fatalf("count = %d, want 5", snap.Count)
	}
	if got, want := snap.Sum, 0.005+0.01+0.05+0.5+5; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("sum = %g, want %g", got, want)
	}
}

func TestRingWrapAndFind(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 5; i++ {
		r.Add(Summary{ID: string(rune('a' + i))})
	}
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("ring kept %d, want 3", len(snap))
	}
	// newest first: e, d, c
	if snap[0].ID != "e" || snap[1].ID != "d" || snap[2].ID != "c" {
		t.Fatalf("ring order = %v", snap)
	}
	if _, ok := r.Find("d"); !ok {
		t.Fatal("Find(d) missed a retained trace")
	}
	if _, ok := r.Find("a"); ok {
		t.Fatal("Find(a) returned an evicted trace")
	}
}

// TestConcurrentRecorders hammers one trace, one histogram, and one
// ring from many goroutines; run under -race this is the span
// recorder's data-race coverage.
func TestConcurrentRecorders(t *testing.T) {
	tr := New("hammer")
	h := NewHistogram([]float64{0.001, 0.01, 0.1})
	r := NewRing(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.Observe("decode", time.Microsecond, 1)
				tr.Add("chunks", 1)
				h.Observe(0.005)
				r.Add(tr.Finish())
				r.Snapshot()
			}
		}()
	}
	wg.Wait()
	sum := tr.Finish()
	if sum.Stages[0].Count != 8*500 || sum.Attrs["chunks"] != 8*500 {
		t.Fatalf("lost observations: %+v", sum)
	}
	if h.Snapshot().Count != 8*500 {
		t.Fatalf("histogram lost observations: %d", h.Snapshot().Count)
	}
}

// TestWriteText pins the exposition of each value kind: an int64 and a
// float64 sample, a label value that needs escaping, and a labelled
// histogram with cumulative buckets and le after the series' labels.
func TestWriteText(t *testing.T) {
	h := NewHistogram([]float64{0.5, 1})
	h.Observe(0.25)
	h.Observe(2)
	var b strings.Builder
	WriteText(&b, []Family{
		{Name: "x_total", Type: "counter", Help: "X.", Read: func(emit func(any, ...string)) {
			emit(int64(1234567), "array", "a\"b\\c\nd")
			emit(int64(0), "array", "e")
		}},
		{Name: "y", Type: "gauge", Help: "Y.", Read: func(emit func(any, ...string)) { emit(0.5) }},
		{Name: "z_seconds", Type: "histogram", Help: "Z.", Read: func(emit func(any, ...string)) { emit(h, "stage", "read") }},
	})
	want := `# HELP x_total X.
# TYPE x_total counter
x_total{array="a\"b\\c\nd"} 1234567
x_total{array="e"} 0
# HELP y Y.
# TYPE y gauge
y 0.5
# HELP z_seconds Z.
# TYPE z_seconds histogram
z_seconds_bucket{stage="read",le="0.5"} 1
z_seconds_bucket{stage="read",le="1"} 1
z_seconds_bucket{stage="read",le="+Inf"} 2
z_seconds_sum{stage="read"} 2.25
z_seconds_count{stage="read"} 2
`
	if b.String() != want {
		t.Errorf("WriteText:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestFields checks the snake_case names, the declaration order and
// the metric:"-" opt-out.
func TestFields(t *testing.T) {
	var got []string
	Fields(struct {
		BytesRead     int64
		Skipped       int64 `metric:"-"`
		StoreDegraded int64
	}{BytesRead: 1, Skipped: 2, StoreDegraded: 3}, func(name string, n int64) {
		got = append(got, fmt.Sprintf("%s=%d", name, n))
	})
	if strings.Join(got, " ") != "bytes_read=1 store_degraded=3" {
		t.Errorf("Fields: %v", got)
	}
}
