package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"arrayvers/client"
	"arrayvers/internal/array"
	"arrayvers/internal/core"
	"arrayvers/internal/trace"
)

// syncBuffer is a goroutine-safe bytes.Buffer for capturing slog output
// written from concurrent request handlers.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// parseLabels splits a `k1="v1",k2="v2"` blob, validating label-name
// syntax and that every value is quoted with only legal escapes
// (backslash, quote, newline). It returns the canonical sorted form.
func parseLabels(t *testing.T, line, blob string) string {
	t.Helper()
	var pairs []string
	rest := blob
	for rest != "" {
		eq := strings.Index(rest, "=")
		if eq < 0 {
			t.Fatalf("label blob %q in %q: missing =", blob, line)
		}
		name := rest[:eq]
		if !labelNameRe.MatchString(name) {
			t.Fatalf("bad label name %q in %q", name, line)
		}
		rest = rest[eq+1:]
		if !strings.HasPrefix(rest, `"`) {
			t.Fatalf("unquoted label value in %q", line)
		}
		rest = rest[1:]
		var val strings.Builder
		closed := false
		for i := 0; i < len(rest); i++ {
			c := rest[i]
			if c == '\\' {
				if i+1 >= len(rest) {
					t.Fatalf("dangling escape in %q", line)
				}
				next := rest[i+1]
				if next != '\\' && next != '"' && next != 'n' {
					t.Fatalf("illegal escape \\%c in %q", next, line)
				}
				val.WriteByte(next)
				i++
				continue
			}
			if c == '"' {
				rest = rest[i+1:]
				closed = true
				break
			}
			val.WriteByte(c)
		}
		if !closed {
			t.Fatalf("unterminated label value in %q", line)
		}
		pairs = append(pairs, name+"="+val.String())
		rest = strings.TrimPrefix(rest, ",")
	}
	sort.Strings(pairs)
	return strings.Join(pairs, ",")
}

// validatePromText checks a /metrics body against the Prometheus text
// exposition format (0.0.4): every sample line parses, every metric has
// HELP and TYPE lines before its first sample, histogram child series
// use the registered parent name, label escaping is legal, and no
// series (name + label set) appears twice.
func validatePromText(t *testing.T, body string) {
	t.Helper()
	helped := map[string]bool{}
	typed := map[string]string{}
	seen := map[string]bool{}
	sampled := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			fields := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(fields) < 2 || !metricNameRe.MatchString(fields[0]) {
				t.Fatalf("malformed HELP line %q", line)
			}
			if helped[fields[0]] {
				t.Fatalf("duplicate HELP for %q", fields[0])
			}
			helped[fields[0]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 || !metricNameRe.MatchString(fields[0]) {
				t.Fatalf("malformed TYPE line %q", line)
			}
			switch fields[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("unknown TYPE %q in %q", fields[1], line)
			}
			if _, dup := typed[fields[0]]; dup {
				t.Fatalf("duplicate TYPE for %q", fields[0])
			}
			if sampled[fields[0]] {
				t.Fatalf("TYPE for %q appears after its samples", fields[0])
			}
			typed[fields[0]] = fields[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unrecognized comment line %q", line)
		}

		// sample line: name[{labels}] value
		name := line
		labels := ""
		if brace := strings.Index(line, "{"); brace >= 0 {
			name = line[:brace]
			end := strings.LastIndex(line, "}")
			if end < brace {
				t.Fatalf("unbalanced braces in %q", line)
			}
			labels = line[brace+1 : end]
			rest := strings.TrimSpace(line[end+1:])
			if _, err := strconv.ParseFloat(rest, 64); err != nil {
				t.Fatalf("bad sample value in %q: %v", line, err)
			}
		} else {
			sp := strings.LastIndex(line, " ")
			if sp < 0 {
				t.Fatalf("malformed sample line %q", line)
			}
			name = line[:sp]
			if _, err := strconv.ParseFloat(strings.TrimSpace(line[sp+1:]), 64); err != nil {
				t.Fatalf("bad sample value in %q: %v", line, err)
			}
		}
		if !metricNameRe.MatchString(name) {
			t.Fatalf("bad metric name %q in %q", name, line)
		}

		// histogram children resolve to the registered parent name
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(name, suffix)
			if trimmed != name && typed[trimmed] == "histogram" {
				base = trimmed
				break
			}
		}
		if typed[base] == "" {
			t.Errorf("series %q has no TYPE line", name)
		}
		if !helped[base] {
			t.Errorf("series %q has no HELP line", name)
		}
		sampled[base] = true

		key := name + "{" + parseLabels(t, line, labels) + "}"
		if seen[key] {
			t.Errorf("duplicate series %q", key)
		}
		seen[key] = true
	}
	if len(seen) == 0 {
		t.Fatal("no samples in /metrics output")
	}
}

// TestMetricsPrometheusGrammar exercises every metric family (request
// counters, stage histograms for both pipelines, per-array cache
// counters, runtime gauges, store counters) and validates the full
// /metrics body against the text-format grammar.
func TestMetricsPrometheusGrammar(t *testing.T) {
	body := scrapeAfterScript(t)
	validatePromText(t, body)
	for _, want := range []string{
		`av_select_stage_seconds_bucket{stage="snapshot",le="+Inf"}`,
		`av_select_stage_bytes_total{stage="read"}`,
		`av_commit_stage_seconds_bucket{stage="stage_encode",le="+Inf"}`,
		`av_group_commit_batch_size_count`,
		`av_cache_hits_total{array="G"}`,
		`av_cache_hit_ratio{array="G"}`,
		"av_go_goroutines",
		"av_go_heap_bytes",
		"av_go_gc_pause_seconds_total",
		"av_go_gomaxprocs",
		"av_decode_pool_active",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// scrapeAfterScript creates an array, inserts one version, selects it
// twice (one miss pass, one hit pass, so cache series carry both) and
// returns the /metrics body.
func scrapeAfterScript(t *testing.T) string {
	t.Helper()
	_, _, ts := newTestServer(t, Config{})
	c := client.New(ts.URL)
	if err := c.CreateArray(denseSchema("G", 16)); err != nil {
		t.Fatal(err)
	}
	d := array.MustDense(array.Int32, []int64{16, 16})
	if _, err := c.Insert("G", core.DensePayload(d)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := c.Select("G", 1); err != nil {
			t.Fatal(err)
		}
	}
	return scrape(t, ts.URL)
}

func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// metricFamilies reduces a /metrics body to one line per family, sorted
// by name: the family name, its TYPE and the label names its samples
// carry ("-" for none).
func metricFamilies(body string) string {
	types := map[string]string{}
	labels := map[string]map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		if f, ok := strings.CutPrefix(line, "# TYPE "); ok {
			fields := strings.Fields(f)
			types[fields[0]] = fields[1]
			labels[fields[0]] = map[string]bool{}
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, rest, _ := strings.Cut(strings.Fields(line)[0], "{")
		if _, ok := types[name]; !ok {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base := strings.TrimSuffix(name, suffix); types[base] == "histogram" {
					name = base
				}
			}
		}
		for _, pair := range strings.Split(strings.TrimSuffix(rest, "}"), ",") {
			if k, _, ok := strings.Cut(pair, "="); ok && labels[name] != nil {
				labels[name][k] = true
			}
		}
	}
	var out []string
	for name, typ := range types {
		var ls []string
		for k := range labels[name] {
			ls = append(ls, k)
		}
		sort.Strings(ls)
		if len(ls) == 0 {
			ls = []string{"-"}
		}
		out = append(out, name+" "+typ+" "+strings.Join(ls, ","))
	}
	sort.Strings(out)
	return strings.Join(out, "\n") + "\n"
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/metric_families.golden")

// TestMetricFamiliesGolden pins every /metrics family's name, TYPE and
// label names: dashboards and the benchmark read them by name.
func TestMetricFamiliesGolden(t *testing.T) {
	got := metricFamilies(scrapeAfterScript(t))
	path := filepath.Join("testdata", "metric_families.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("/metrics families differ from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestCacheSeriesDieWithArray drops an array that was read and
// recreates it under the same name: the dropped array's per-array cache
// series leave /metrics, and the new array starts from zero.
func TestCacheSeriesDieWithArray(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	c := client.New(ts.URL)
	d := array.MustDense(array.Int32, []int64{16, 16})
	createAndRead := func(name string) {
		t.Helper()
		if err := c.CreateArray(denseSchema(name, 16)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Insert(name, core.DensePayload(d)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Select(name, 1); err != nil {
			t.Fatal(err)
		}
	}
	createAndRead("D")
	createAndRead("K")
	if body := scrape(t, ts.URL); !strings.Contains(body, `av_cache_hits_total{array="D"} 1`) {
		t.Fatalf("no cache series for a read array:\n%s", body)
	}
	if err := c.DeleteArray("D"); err != nil {
		t.Fatal(err)
	}
	body := scrape(t, ts.URL)
	if strings.Contains(body, `array="D"`) {
		t.Errorf("a dropped array's cache series stay on /metrics")
	}
	if !strings.Contains(body, `av_cache_hits_total{array="K"} 1`) {
		t.Errorf("a live array's cache series left /metrics")
	}
	if err := c.CreateArray(denseSchema("D", 16)); err != nil {
		t.Fatal(err)
	}
	body = scrape(t, ts.URL)
	for _, want := range []string{`av_cache_hits_total{array="D"} 0`, `av_cache_misses_total{array="D"} 0`} {
		if !strings.Contains(body, want) {
			t.Errorf("a recreated array does not start from zero: no %q", want)
		}
	}
}

// TestStatsSurfacesAgree checks the surfaces derived from IOStats after
// a scripted workload: /v1/stats decodes to Store.Stats() field for
// field, and /metrics carries every field but MmapReads once, as
// avstored_store_<snake_case name> with the same value.
func TestStatsSurfacesAgree(t *testing.T) {
	_, store, ts := newTestServer(t, Config{})
	c := client.New(ts.URL)
	if err := c.CreateArray(denseSchema("S", 64)); err != nil {
		t.Fatal(err)
	}
	d := array.MustDense(array.Int32, []int64{64, 64})
	for i := 0; i < 3; i++ {
		d.SetBits(int64(i), int64(i+1))
		if _, err := c.Insert("S", core.DensePayload(d)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.SelectMulti("S", []int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteVersion("S", 2); err != nil {
		t.Fatal(err)
	}
	got, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	want := store.Stats()
	if got != want {
		t.Errorf("/v1/stats = %+v\nStore.Stats() = %+v", got, want)
	}
	if want.ChunksRead == 0 || want.ChunksWritten == 0 || want.ManifestRecords == 0 {
		t.Fatalf("the script moved no counters: %+v", want)
	}
	body := scrape(t, ts.URL)
	v := reflect.ValueOf(want)
	word := regexp.MustCompile(`[A-Z][a-z]*`)
	for i := range v.NumField() {
		f := v.Type().Field(i)
		var parts []string
		for _, m := range word.FindAllString(f.Name, -1) {
			parts = append(parts, strings.ToLower(m))
		}
		series := "avstored_store_" + strings.Join(parts, "_") + " "
		n := strings.Count(body, "\n"+series)
		if f.Name == "MmapReads" {
			if n != 0 {
				t.Errorf("%s on /metrics", series)
			}
			continue
		}
		if n != 1 {
			t.Errorf("%q appears %d times on /metrics, want once", series, n)
			continue
		}
		line := body[strings.Index(body, "\n"+series)+1:]
		line = line[:strings.Index(line, "\n")]
		if line != series+strconv.FormatInt(v.Field(i).Int(), 10) {
			t.Errorf("/metrics has %q, Store.Stats() %s = %d", line, f.Name, v.Field(i).Int())
		}
	}
}

// TestTracePropagationEndToEnd sends a traced remote select and checks
// the one trace ID is visible everywhere the design promises: echoed on
// the response header, recorded in the structured request log line,
// retrievable from /debug/traces, and carrying the select pipeline's
// stage breakdown.
func TestTracePropagationEndToEnd(t *testing.T) {
	logBuf := &syncBuffer{}
	_, _, ts := newTestServer(t, Config{Log: slog.New(slog.NewTextHandler(logBuf, nil))})
	c := client.New(ts.URL)
	if err := c.CreateArray(denseSchema("T", 16)); err != nil {
		t.Fatal(err)
	}
	d := array.MustDense(array.Int32, []int64{16, 16})
	if _, err := c.Insert("T", core.DensePayload(d)); err != nil {
		t.Fatal(err)
	}

	id := trace.NewID()
	if _, err := c.WithTrace(id).Select("T", 1); err != nil {
		t.Fatal(err)
	}

	// the header echo, checked on a raw request joining its own fresh
	// trace (reusing id here would push a second, stage-less summary
	// under the same id that shadows the select's in the ring)
	echoID := trace.NewID()
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/arrays/T", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(TraceHeader, echoID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	drainBody(resp)
	if got := resp.Header.Get(TraceHeader); got != echoID {
		t.Errorf("response %s = %q, want the sent id %q", TraceHeader, got, echoID)
	}
	// an untraced request gets a fresh id assigned
	resp2, err := http.Get(ts.URL + "/v1/arrays/T")
	if err != nil {
		t.Fatal(err)
	}
	drainBody(resp2)
	if got := resp2.Header.Get(TraceHeader); got == "" || got == id {
		t.Errorf("untraced request should get a fresh trace id, got %q", got)
	}

	// the structured request log carries the id
	if !strings.Contains(logBuf.String(), "trace_id="+id) {
		t.Errorf("request log does not mention trace_id=%s:\n%s", id, logBuf.String())
	}

	// /debug/traces serves the breakdown under the same id
	sum, err := c.Trace(id)
	if err != nil {
		t.Fatal(err)
	}
	if sum.ID != id {
		t.Errorf("trace summary id = %q, want %q", sum.ID, id)
	}
	stages := map[string]bool{}
	for _, st := range sum.Stages {
		stages[st.Stage] = true
	}
	for _, want := range []string{core.StageSnapshot, core.StageCache, core.StageMaterialize} {
		if !stages[want] {
			t.Errorf("trace %s missing stage %q (got %v)", id, want, sum.Stages)
		}
	}
	if sum.DurationNs <= 0 {
		t.Errorf("trace duration = %d, want > 0", sum.DurationNs)
	}

	// unknown ids 404 through the typed client error
	if _, err := c.Trace(strings.Repeat("f", 32)); err == nil {
		t.Error("Trace(unknown) should fail")
	}

	// the ring listing includes the trace, newest first
	all, err := c.Traces(0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range all {
		if s.ID == id {
			found = true
		}
	}
	if !found {
		t.Errorf("trace %s not in /debug/traces listing", id)
	}
}

// TestTracedConcurrentClients is the -race workout for the span
// recorder and trace ring: 8 clients issue traced inserts and selects
// while /metrics scrapes snapshot the live histograms, then every
// client's trace must be individually retrievable with its own id.
func TestTracedConcurrentClients(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	const clients = 8
	const opsPerClient = 6

	stop := make(chan struct{})
	var scrapeWG sync.WaitGroup
	scrapeWG.Add(1)
	go func() {
		defer scrapeWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(ts.URL + "/metrics")
			if err == nil {
				drainBody(resp)
			}
		}
	}()

	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	idsCh := make(chan string, clients*opsPerClient)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := client.New(ts.URL)
			name := fmt.Sprintf("C%d", ci)
			if err := c.CreateArray(denseSchema(name, 16)); err != nil {
				errCh <- err
				return
			}
			d := array.MustDense(array.Int32, []int64{16, 16})
			if _, err := c.Insert(name, core.DensePayload(d)); err != nil {
				errCh <- err
				return
			}
			for op := 0; op < opsPerClient; op++ {
				id := trace.NewID()
				if _, err := c.WithTrace(id).Select(name, 1); err != nil {
					errCh <- fmt.Errorf("client %d op %d: %w", ci, op, err)
					return
				}
				idsCh <- id
			}
		}(ci)
	}
	wg.Wait()
	close(stop)
	scrapeWG.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	close(idsCh)
	c := client.New(ts.URL)
	for id := range idsCh {
		sum, err := c.Trace(id)
		if err != nil {
			t.Fatalf("trace %s: %v", id, err)
		}
		if sum.ID != id || len(sum.Stages) == 0 {
			t.Fatalf("trace %s: bad summary %+v", id, sum)
		}
	}
}

// TestDebugTracesEndpoint covers the endpoint's parameter handling: the
// n cap, bad n values, and the JSON shape.
func TestDebugTracesEndpoint(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	c := client.New(ts.URL)
	if err := c.CreateArray(denseSchema("D", 16)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.ListArrays(); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Get(ts.URL + "/debug/traces?n=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Traces []trace.Summary `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Traces) != 2 {
		t.Fatalf("n=2 returned %d traces", len(out.Traces))
	}
	resp, err = http.Get(ts.URL + "/debug/traces?n=bogus")
	if err != nil {
		t.Fatal(err)
	}
	drainBody(resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("n=bogus -> %d, want 400", resp.StatusCode)
	}
}

func drainBody(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
}
