package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"arrayvers/client"
	"arrayvers/internal/array"
	"arrayvers/internal/core"
	"arrayvers/internal/fsio"
	"arrayvers/internal/layout"
	"arrayvers/internal/wire"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *core.Store, *httptest.Server) {
	t.Helper()
	if cfg.Store == nil {
		opts := core.DefaultOptions()
		opts.ChunkBytes = 4 << 10
		opts.CacheBytes = 16 << 20
		store, err := core.Open(t.TempDir(), opts)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Store = store
	}
	if cfg.Logger == nil {
		cfg.Logger = log.New(io.Discard, "", 0)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, cfg.Store, ts
}

func denseSchema(name string, side int64) array.Schema {
	return array.Schema{
		Name:  name,
		Dims:  []array.Dimension{{Name: "Y", Lo: 0, Hi: side - 1}, {Name: "X", Lo: 0, Hi: side - 1}},
		Attrs: []array.Attribute{{Name: "V", Type: array.Int32}},
	}
}

func randDense(rng *rand.Rand, side int64) *array.Dense {
	d := array.MustDense(array.Int32, []int64{side, side})
	for i := int64(0); i < d.NumCells(); i++ {
		d.SetBits(i, int64(rng.Intn(1<<16)))
	}
	return d
}

// TestEndToEndConcurrentClients drives 8 concurrent clients — each with
// its own array — through create, all insert forms, every select form,
// branch, and AQL against one shared server, and checks every remote
// result byte-identical against both a locally maintained expectation
// and the embedded store underneath the server.
func TestEndToEndConcurrentClients(t *testing.T) {
	_, store, ts := newTestServer(t, Config{})
	const clients = 8
	const side = 48

	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			fail := func(format string, args ...any) {
				errCh <- fmt.Errorf("client %d: "+format, append([]any{ci}, args...)...)
			}
			c := client.New(ts.URL)
			rng := rand.New(rand.NewSource(int64(1000 + ci)))
			name := fmt.Sprintf("Arr%d", ci)
			if err := c.CreateArray(denseSchema(name, side)); err != nil {
				fail("create: %v", err)
				return
			}

			// three dense versions plus one delta-list version, keeping a
			// local expectation of every version's content
			var ids []int
			var want []*array.Dense
			for v := 0; v < 3; v++ {
				d := randDense(rng, side)
				want = append(want, d.Clone())
				id, err := c.Insert(name, core.DensePayload(d))
				if err != nil {
					fail("insert %d: %v", v, err)
					return
				}
				ids = append(ids, id)
			}
			updates := []core.CellUpdate{
				{Coords: []int64{0, 0}, Bits: 123456},
				{Coords: []int64{side - 1, side - 1}, Bits: -7},
			}
			last := want[2].Clone()
			for _, u := range updates {
				last.SetBitsAt(u.Coords, u.Bits)
			}
			want = append(want, last)
			id, err := c.Insert(name, core.DeltaListPayload(ids[2], updates))
			if err != nil {
				fail("delta-list insert: %v", err)
				return
			}
			ids = append(ids, id)

			// full selects: byte-identical to the local expectation AND to
			// the embedded store the server wraps
			for i, id := range ids {
				pl, err := c.Select(name, id)
				if err != nil {
					fail("select @%d: %v", id, err)
					return
				}
				if pl.Dense == nil || !pl.Dense.Equal(want[i]) {
					fail("select @%d differs from local expectation", id)
					return
				}
				direct, err := store.Select(name, id)
				if err != nil {
					fail("embedded select @%d: %v", id, err)
					return
				}
				if string(direct.Dense.Bytes()) != string(pl.Dense.Bytes()) {
					fail("select @%d not byte-identical to embedded result", id)
					return
				}
			}

			// region select
			box := array.NewBox([]int64{3, 5}, []int64{17, 29})
			pl, err := c.SelectRegion(name, ids[1], box)
			if err != nil {
				fail("select region: %v", err)
				return
			}
			wantRegion, err := want[1].Slice(box)
			if err != nil {
				fail("slice: %v", err)
				return
			}
			if !pl.Dense.Equal(wantRegion) {
				fail("region select mismatch")
				return
			}

			// multi-version stack
			stack, err := c.SelectMulti(name, ids)
			if err != nil {
				fail("select multi: %v", err)
				return
			}
			wantStack, err := array.Stack(want)
			if err != nil {
				fail("stack: %v", err)
				return
			}
			if !stack.Equal(wantStack) {
				fail("select multi mismatch")
				return
			}

			// branch, then read the branch back
			branch := name + "_b"
			if err := c.Branch(name, ids[1], branch); err != nil {
				fail("branch: %v", err)
				return
			}
			bpl, err := c.Select(branch, 1)
			if err != nil {
				fail("branch select: %v", err)
				return
			}
			if !bpl.Dense.Equal(want[1]) {
				fail("branch content mismatch")
				return
			}
			binfo, err := c.Info(branch)
			if ref := binfo.BranchedFrom; err != nil || ref == nil || ref.Array != name || ref.Version != ids[1] {
				fail("branched-from: ref=%+v err=%v", ref, err)
				return
			}

			// AQL through the wire: names and framed array results
			res, err := c.Query(fmt.Sprintf("VERSIONS(%s);", name))
			if err != nil {
				fail("aql versions: %v", err)
				return
			}
			if len(res.Names) != len(ids) {
				fail("aql versions: %d names, want %d", len(res.Names), len(ids))
				return
			}
			res, err = c.Query(fmt.Sprintf("SELECT * FROM %s@%d;", name, ids[0]))
			if err != nil {
				fail("aql select: %v", err)
				return
			}
			if res.Dense == nil || !res.Dense.Equal(want[0]) {
				fail("aql select mismatch")
				return
			}

			// metadata
			info, err := c.Info(name)
			if err != nil || info.NumVersions != len(ids) || len(info.Versions) != len(ids) || info.BranchedFrom != nil {
				fail("info: %+v err=%v", info, err)
				return
			}
			vid, err := info.At(time.Now().Add(time.Hour))
			if err != nil || vid != ids[len(ids)-1] {
				fail("version-at: %d err=%v", vid, err)
				return
			}
			rep, err := c.Verify(name)
			if err != nil || !rep.Ok() {
				fail("verify: %+v err=%v", rep, err)
				return
			}
		}(ci)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// the server's one store saw all 16 arrays
	names, err := client.New(ts.URL).ListArrays()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2*clients {
		t.Fatalf("ListArrays: %d names, want %d", len(names), 2*clients)
	}
}

// TestSparseRoundTrip exercises the sparse payload and the sparse plane
// frames of single- and multi-version select replies.
func TestSparseRoundTrip(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	c := client.New(ts.URL)
	const dim = 10_000
	schema := array.Schema{
		Name:  "Sp",
		Dims:  []array.Dimension{{Name: "I", Lo: 0, Hi: dim - 1}},
		Attrs: []array.Attribute{{Name: "W", Type: array.Int64}},
	}
	if err := c.CreateArray(schema); err != nil {
		t.Fatal(err)
	}
	var ids []int
	var want []*array.Sparse
	for v := 0; v < 3; v++ {
		sp := array.MustSparse(array.Int64, []int64{dim}, 0)
		for k := int64(0); k < 50; k++ {
			sp.SetBits((k*97+int64(v)*13)%dim, k+int64(v)<<32)
		}
		want = append(want, sp.Clone())
		id, err := c.Insert("Sp", core.SparsePayload(sp))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i, id := range ids {
		pl, err := c.Select("Sp", id)
		if err != nil {
			t.Fatal(err)
		}
		if pl.Sparse == nil || !pl.Sparse.Equal(want[i]) {
			t.Fatalf("sparse select @%d mismatch", id)
		}
	}
	set, err := c.SelectSparseMulti("Sp", ids, array.Box{})
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 3 {
		t.Fatalf("sparse multi: %d results", len(set))
	}
	for i := range set {
		if !set[i].Equal(want[i]) {
			t.Fatalf("sparse multi element %d mismatch", i)
		}
	}
	// a multi-version region keeps the sparse representation too
	box := array.NewBox([]int64{100}, []int64{5000})
	set, err = c.SelectSparseMulti("Sp", ids[1:], box)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 2 {
		t.Fatalf("sparse multi region: %d results", len(set))
	}
	for i := range set {
		wantRegion, err := want[i+1].Slice(box)
		if err != nil {
			t.Fatal(err)
		}
		if !set[i].Equal(wantRegion) {
			t.Fatalf("sparse multi region element %d mismatch", i)
		}
	}
}

// TestSelectReplyBounded pins the bound on multi-version select replies:
// a dense reply that would exceed MaxFrameBytes is refused with 413
// before any chunk is read, however often the ids repeat.
func TestSelectReplyBounded(t *testing.T) {
	_, store, ts := newTestServer(t, Config{MaxFrameBytes: 64 << 10})
	c := client.New(ts.URL)
	if err := c.CreateArray(denseSchema("Big", 64)); err != nil { // 16 KiB a plane
		t.Fatal(err)
	}
	if _, err := c.Insert("Big", core.DensePayload(randDense(rand.New(rand.NewSource(5)), 64))); err != nil {
		t.Fatal(err)
	}
	st := store.Stats()
	before, beforeHits := st.ChunksRead, st.CacheHits
	resp, err := http.Get(ts.URL + "/v1/arrays/Big/select?versions=1,1,1,1,1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("five planes over a 64 KiB limit: %d, want 413", resp.StatusCode)
	}
	if got := store.Stats(); got.ChunksRead != before || got.CacheHits != beforeHits {
		t.Fatalf("refused select read %d chunks and hit %d cached ones", got.ChunksRead-before, got.CacheHits-beforeHits)
	}
	// four planes fill the limit exactly, and a box shrinks the reply
	for _, q := range []core.ReadQuery{
		{Array: "Big", IDs: []int{1, 1, 1, 1}},
		{Array: "Big", IDs: []int{1, 1, 1, 1, 1, 1}, Box: array.NewBox([]int64{0, 0}, []int64{32, 64})},
	} {
		planes, err := c.Read(context.Background(), q)
		if err != nil {
			t.Fatalf("%d versions within the limit: %v", len(q.IDs), err)
		}
		if len(planes) != len(q.IDs) {
			t.Fatalf("read %d planes, want %d", len(planes), len(q.IDs))
		}
	}
	// the insert left its chunks in the cache, so an accepted select may
	// be served from it without a read
	if st := store.Stats(); st.ChunksRead+st.CacheHits == before+beforeHits {
		t.Fatal("accepted selects read no chunks, from disk or cache")
	}
}

// TestSelectReplyTrailingByte: a select reply with one byte after its
// last plane frame fails in the client instead of being drained.
func TestSelectReplyTrailingByte(t *testing.T) {
	srv, store, _ := newTestServer(t, Config{})
	if err := store.CreateArray(denseSchema("T", 16)); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Insert("T", core.DensePayload(randDense(rand.New(rand.NewSource(7)), 16))); err != nil {
		t.Fatal(err)
	}
	inner := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		w.WriteHeader(rec.Code)
		_, _ = w.Write(append(rec.Body.Bytes(), 0))
	}))
	defer ts.Close()
	c := client.New(ts.URL)
	_, err := c.Read(context.Background(), core.ReadQuery{Array: "T", IDs: []int{1}})
	if err == nil || !strings.Contains(err.Error(), "trailing bytes") {
		t.Fatalf("reply with a trailing byte: err = %v, want trailing bytes", err)
	}
}

// TestBackpressure fills the in-flight semaphore and checks the server
// answers 429 instead of queueing.
func TestBackpressure(t *testing.T) {
	srv, _, ts := newTestServer(t, Config{MaxInFlight: 2})
	// occupy both slots
	srv.sem <- struct{}{}
	srv.sem <- struct{}{}
	resp, err := http.Get(ts.URL + "/v1/arrays")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	// /healthz and /metrics stay reachable under load
	for _, path := range []string{"/healthz", "/metrics"} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("%s under load: %d", path, r.StatusCode)
		}
	}
	// draining the semaphore restores service
	<-srv.sem
	<-srv.sem
	resp2, err := http.Get(ts.URL + "/v1/arrays")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("after drain: %d", resp2.StatusCode)
	}
}

// TestErrorMapping spot-checks the HTTP status codes for store and
// codec failures.
func TestErrorMapping(t *testing.T) {
	_, _, ts := newTestServer(t, Config{MaxFrameBytes: 1 << 20})
	c := client.New(ts.URL)

	if _, err := c.Select("nope", 1); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("select on missing array: %v", err)
	}
	if _, err := c.Info("nope"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("info on missing array: %v", err)
	}
	if err := c.CreateArray(denseSchema("Dup", 8)); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateArray(denseSchema("Dup", 8)); err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("duplicate create: %v", err)
	}
	// time travel to before the first version is a missing version
	if _, err := c.Query("SELECT * FROM Dup@'1-1-1970';"); err == nil ||
		!strings.Contains(err.Error(), "404") || !strings.Contains(err.Error(), "has no version at or before") {
		t.Fatalf("aql select before the first version: %v, want a 404", err)
	}
	// an array with no versions lists them as [], not null
	resp, err := http.Get(ts.URL + "/v1/arrays/Dup")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(raw, []byte(`"Versions":[]`)) || !bytes.Contains(raw, []byte(`"BranchedFrom":null`)) {
		t.Fatalf("info of an empty array: %s", raw)
	}
	// garbage instead of a write body
	resp, err = http.Post(ts.URL+"/v1/write", FrameContentType, strings.NewReader("not a frame"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage insert body: %d, want 400", resp.StatusCode)
	}
	// an oversized frame is rejected by the configured limit
	huge := array.MustDense(array.Int32, []int64{8, 8})
	big := make([]byte, 13)
	copy(big, []byte{'A', 'V', 'F', '1', 3})
	big[5], big[6], big[7] = 0xff, 0xff, 0xff // 16 MB claimed > 1 MB limit
	resp, err = http.Post(ts.URL+"/v1/write", FrameContentType, strings.NewReader(string(big)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized insert frame: %d, want 413", resp.StatusCode)
	}
	_ = huge
}

// TestGracefulShutdownMidTraffic runs sustained concurrent traffic,
// shuts the server down under it, and checks the store reopens clean:
// every array verifies and the newest version of each remains readable.
func TestGracefulShutdownMidTraffic(t *testing.T) {
	opts := core.DefaultOptions()
	opts.ChunkBytes = 4 << 10
	opts.CacheBytes = 16 << 20
	dir := t.TempDir()
	store, err := core.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Store: store, Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())

	const writers = 4
	const side = 32
	var stop atomic.Bool
	var wg sync.WaitGroup
	for ci := 0; ci < writers; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := client.New(ts.URL)
			name := fmt.Sprintf("G%d", ci)
			if err := c.CreateArray(denseSchema(name, side)); err != nil {
				return
			}
			rng := rand.New(rand.NewSource(int64(ci)))
			var ids []int
			for !stop.Load() {
				id, err := c.Insert(name, core.DensePayload(randDense(rng, side)))
				if err != nil {
					return // connection torn down by shutdown — expected
				}
				ids = append(ids, id)
				if _, err := c.Select(name, ids[rng.Intn(len(ids))]); err != nil {
					return
				}
			}
		}(ci)
	}

	time.Sleep(100 * time.Millisecond)
	// graceful: the httptest server waits for in-flight requests
	ts.Close()
	stop.Store(true)
	wg.Wait()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// the store must reopen clean, with every array fully readable
	reopened, err := core.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	names := reopened.ListArrays()
	if len(names) == 0 {
		t.Fatal("no arrays survived the traffic")
	}
	for _, name := range names {
		rep, err := reopened.Verify(name)
		if err != nil {
			t.Fatalf("verify %s: %v", name, err)
		}
		if !rep.Ok() {
			t.Fatalf("verify %s: %v", name, rep.Problems)
		}
		info, err := reopened.Info(name)
		if err != nil || info.NumVersions == 0 {
			t.Fatalf("versions %s: %d, err=%v", name, info.NumVersions, err)
		}
		if _, err := reopened.Select(name, info.Versions[info.NumVersions-1].ID); err != nil {
			t.Fatalf("select newest of %s: %v", name, err)
		}
	}
}

// TestClosedStoreAnswers503 checks the service answers 503 once the
// store is closed underneath it.
func TestClosedStoreAnswers503(t *testing.T) {
	_, store, ts := newTestServer(t, Config{})
	c := client.New(ts.URL)
	if err := c.CreateArray(denseSchema("C", 8)); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	_, err := c.Select("C", 1)
	if err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("select on closed store: %v", err)
	}
}

// TestMetricsEndpoint checks request counters and store stats surface
// in the Prometheus text output.
func TestMetricsEndpoint(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	c := client.New(ts.URL)
	if err := c.CreateArray(denseSchema("M", 16)); err != nil {
		t.Fatal(err)
	}
	d := array.MustDense(array.Int32, []int64{16, 16})
	if _, err := c.Insert("M", core.DensePayload(d)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Select("M", 1); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		`avstored_requests_total{route="create",code="201"} 1`,
		`avstored_requests_total{route="write",code="201"} 1`,
		`avstored_requests_total{route="select",code="200"} 1`,
		"avstored_request_duration_seconds_count 3",
		"avstored_requests_rejected_total 0",
		"avstored_store_chunks_written",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestTuneEndpoint drives Tune end to end over HTTP: the workload
// travels in the request body, a hot-oldest workload reorganizes the
// linear-chain array, reads stay byte-identical afterwards, an unknown
// version is a 400 that leaves the array untouched, a missing array is
// a 404, and the recorded-workload routes are gone.
func TestTuneEndpoint(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	c := client.New(ts.URL)

	const side, n = 48, 8
	if err := c.CreateArray(denseSchema("T", side)); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	versions := make([]*array.Dense, n)
	cur := randDense(rng, side)
	for i := range versions {
		versions[i] = cur.Clone()
		for j := int64(0); j < cur.NumCells(); j++ {
			if rng.Float64() < 0.1 {
				cur.SetBits(j, cur.Bits(j)+1)
			}
		}
		if _, err := c.Insert("T", core.DensePayload(versions[i])); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Reorganize("T", core.ReorganizeOptions{Policy: core.PolicyLinearChain}); err != nil {
		t.Fatal(err)
	}
	before, err := c.Info("T")
	if err != nil {
		t.Fatal(err)
	}
	// an unknown version is the caller's error and rewrites nothing
	if _, err := c.Tune("T", []layout.Query{layout.Snapshot(1, 20), layout.Snapshot(99, 1)}); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("tune with an unknown version returned %v, want 400", err)
	}
	if after, err := c.Info("T"); err != nil || after.DiskBytes != before.DiskBytes || after.NumVersions != before.NumVersions {
		t.Fatalf("rejected tune touched the array: %+v -> %+v (%v)", before, after, err)
	}

	// the oldest version is hot
	rep, err := c.Tune("T", []layout.Query{layout.Snapshot(1, 20)})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Reorganized || rep.Queries != 1 || rep.MinSavings != 0.10 {
		t.Fatalf("remote tune pass: %+v", rep)
	}
	for i, want := range versions {
		got, err := c.Select("T", i+1)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Dense.Equal(want) {
			t.Fatalf("version %d not byte-identical after remote tune", i+1)
		}
	}
	// the same workload again: already laid out for it
	rep, err = c.Tune("T", []layout.Query{layout.Snapshot(1, 20)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reorganized || rep.Reason == "" {
		t.Fatalf("second remote tune pass: %+v", rep)
	}
	// tune of a missing array maps to 404
	if _, err := c.Tune("nope", []layout.Query{layout.Snapshot(1, 1)}); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("tune of unknown array returned %v, want 404", err)
	}
	for _, method := range []string{http.MethodGet, http.MethodPost} {
		req, err := http.NewRequest(method, ts.URL+"/v1/arrays/T/workload", strings.NewReader("[]"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("%s /workload = %d, want the route gone", method, resp.StatusCode)
		}
	}
}

// TestWorkloadValidationRoutes is the HTTP half of the caller-workload
// validation table: each malformed workload is a 400 from both routes
// that take one.
func TestWorkloadValidationRoutes(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	c := client.New(ts.URL)
	if err := c.CreateArray(denseSchema("V", 16)); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 3; i++ {
		if _, err := c.Insert("V", core.DensePayload(randDense(rng, 16))); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct{ name, workload string }{
		{"missing", `null`},
		{"empty", `[]`},
		{"no versions", `[{"Versions":[],"Weight":1}]`},
		{"zero weight", `[{"Versions":[1],"Weight":0}]`},
		{"negative weight", `[{"Versions":[1],"Weight":5},{"Versions":[2],"Weight":-3}]`},
		{"infinite weight", `[{"Versions":[1],"Weight":1e999}]`},
		{"unknown version", `[{"Versions":[1],"Weight":5},{"Versions":[99],"Weight":5}]`},
	} {
		for _, rt := range []struct{ path, body string }{
			{"/v1/arrays/V/tune", `{"workload":` + tc.workload + `}`},
			{"/v1/arrays/V/reorganize", `{"policy":"workload","workload":` + tc.workload + `}`},
		} {
			resp, err := http.Post(ts.URL+rt.path, "application/json", strings.NewReader(rt.body))
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %s: %d %s, want 400", tc.name, rt.path, resp.StatusCode, raw)
			}
		}
	}
}

// TestJSONBodyBound pins the control-body bound: a JSON body over
// maxJSONBody is refused with 413, with or without a declared length,
// and refusing a declared one allocates far less than the body.
func TestJSONBodyBound(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	const bodyBytes = 4 * maxJSONBody
	// a syntactically open workload, so no decoder could stop early
	const open = `{"policy":"workload","workload":[`
	body := make([]byte, bodyBytes)
	copy(body, open)
	for i := len(open); i < len(body); i++ {
		body[i] = ' '
	}
	post := func(r io.Reader) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/arrays/T/reorganize", "application/json", r)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	code := post(bytes.NewReader(body))
	runtime.ReadMemStats(&m1)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d, want 413", code)
	}
	grew := m1.TotalAlloc - m0.TotalAlloc
	t.Logf("a rejected %d-byte body allocated %d bytes", bodyBytes, grew)
	if grew >= 2*maxJSONBody {
		t.Fatalf("a rejected %d-byte body allocated %d bytes, want < %d", bodyBytes, grew, 2*maxJSONBody)
	}
	// without a Content-Length the read itself stops at the bound
	if code := post(io.MultiReader(bytes.NewReader(body))); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized chunked body: %d, want 413", code)
	}
}

// TestInsertBatchRoute drives a many-payload write through the one
// write route end to end: a dense + delta-list put commits atomically,
// the ids come back in payload order, every member reads back
// byte-identical, and a torn body is a 400 that commits nothing.
func TestInsertBatchRoute(t *testing.T) {
	_, store, ts := newTestServer(t, Config{})
	c := client.New(ts.URL)
	const side = 32
	if err := c.CreateArray(denseSchema("Batch", side)); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	base := randDense(rng, side)
	id, err := c.Insert("Batch", core.DensePayload(base))
	if err != nil {
		t.Fatal(err)
	}
	next := randDense(rng, side)
	deltaWant := base.Clone()
	deltaWant.SetBitsAt([]int64{3, 4}, 4242)
	written, err := c.Write(context.Background(), []core.MultiInsert{{Array: "Batch", Payloads: []core.Payload{
		core.DensePayload(next),
		core.DeltaListPayload(id, []core.CellUpdate{{Coords: []int64{3, 4}, Bits: 4242}}),
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if ids := written[0]; len(written) != 1 || len(ids) != 2 || ids[0] != id+1 || ids[1] != id+2 {
		t.Fatalf("write ids = %v, want [[%d %d]]", written, id+1, id+2)
	}
	for i, want := range []*array.Dense{next, deltaWant} {
		pl, err := c.Select("Batch", written[0][i])
		if err != nil {
			t.Fatalf("batch member %d: %v", written[0][i], err)
		}
		if !pl.Dense.Equal(want) {
			t.Fatalf("batch member %d corrupted over the wire", written[0][i])
		}
	}
	// remote and embedded agree
	info, err := store.Info("Batch")
	if err != nil {
		t.Fatal(err)
	}
	if info.NumVersions != 3 {
		t.Fatalf("embedded store has %d versions, want 3", info.NumVersions)
	}

	// torn body: first payload frame valid, second torn mid-frame → 400,
	// nothing committed
	var buf bytes.Buffer
	if err := wire.WriteMultiBatch(&buf, []core.MultiInsert{{Array: "Batch", Payloads: []core.Payload{
		core.DensePayload(randDense(rng, side)), core.DensePayload(randDense(rng, side)),
	}}}); err != nil {
		t.Fatal(err)
	}
	torn := buf.Bytes()[:buf.Len()-100]
	resp, err := http.Post(ts.URL+"/v1/write", FrameContentType, bytes.NewReader(torn))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("torn batch answered %d, want 400", resp.StatusCode)
	}
	if info, _ := store.Info("Batch"); info.NumVersions != 3 {
		t.Fatalf("torn batch committed something: %d versions", info.NumVersions)
	}
}

// TestInsertMultiRoute drives a cross-array write end to end: one
// /v1/write request spanning three arrays commits atomically, the ids
// come back per put in put order and payload order, every member reads
// back byte-identical from both the remote and the embedded store, a
// torn body is a 400 that commits nothing anywhere, and a write naming
// one array twice is refused.
func TestInsertMultiRoute(t *testing.T) {
	_, store, ts := newTestServer(t, Config{})
	c := client.New(ts.URL)
	const side = 24
	names := []string{"MulC", "MulA", "MulB"} // put order is not name order
	for _, name := range names {
		if err := c.CreateArray(denseSchema(name, side)); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(77))
	want := map[string][]*array.Dense{
		"MulA": {randDense(rng, side), randDense(rng, side)},
		"MulB": {randDense(rng, side)},
		"MulC": {randDense(rng, side)},
	}
	puts := make([]core.MultiInsert, 0, len(want))
	for _, name := range names {
		var ps []core.Payload
		for _, d := range want[name] {
			ps = append(ps, core.DensePayload(d))
		}
		puts = append(puts, core.MultiInsert{Array: name, Payloads: ps})
	}
	ids, err := c.Write(context.Background(), puts)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 {
		t.Fatalf("write answered %d puts, want 3", len(ids))
	}
	for i, name := range names {
		ds := want[name]
		got := ids[i]
		if len(got) != len(ds) {
			t.Fatalf("%s: %d ids, want %d", name, len(got), len(ds))
		}
		for j, d := range ds {
			pl, err := c.Select(name, got[j])
			if err != nil {
				t.Fatalf("%s@%d: %v", name, got[j], err)
			}
			if !pl.Dense.Equal(d) {
				t.Fatalf("%s@%d corrupted over the wire", name, got[j])
			}
		}
		info, err := store.Info(name)
		if err != nil {
			t.Fatal(err)
		}
		if info.NumVersions != len(ds) {
			t.Fatalf("embedded %s has %d versions, want %d", name, info.NumVersions, len(ds))
		}
	}

	// torn body: valid part table, last payload frame truncated → 400,
	// and no array gains a version
	var buf bytes.Buffer
	if err := wire.WriteMultiBatch(&buf, []core.MultiInsert{
		{Array: "MulA", Payloads: []core.Payload{core.DensePayload(randDense(rng, side))}},
		{Array: "MulB", Payloads: []core.Payload{core.DensePayload(randDense(rng, side))}},
	}); err != nil {
		t.Fatal(err)
	}
	torn := buf.Bytes()[:buf.Len()-9]
	resp, err := http.Post(ts.URL+"/v1/write", FrameContentType, bytes.NewReader(torn))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("torn write answered %d, want 400", resp.StatusCode)
	}
	// one array twice: refused before anything is staged
	one := []core.Payload{core.DensePayload(randDense(rng, side))}
	if _, err := c.Write(context.Background(), []core.MultiInsert{{Array: "MulA", Payloads: one}, {Array: "MulA", Payloads: one}}); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("write naming one array twice: %v, want a 400", err)
	}
	for name, ds := range want {
		if info, _ := store.Info(name); info.NumVersions != len(ds) {
			t.Fatalf("a refused write committed into %s: %d versions", name, info.NumVersions)
		}
	}
}

// TestIdempotencyKeyScopedByRoute is the regression for the dedupe-key
// collision: the replay table must scope the client's Idempotency-Key
// by the write's part table, so reusing one key against two different
// arrays commits twice instead of replaying the first array's ids
// against the second, and each put of a genuine retry replays its own
// ids.
func TestIdempotencyKeyScopedByRoute(t *testing.T) {
	_, store, ts := newTestServer(t, Config{})
	c := client.New(ts.URL)
	const side = 16
	for _, name := range []string{"IdemA", "IdemB"} {
		if err := c.CreateArray(denseSchema(name, side)); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(9))
	post := func(puts []core.MultiInsert) (*http.Response, [][]int) {
		t.Helper()
		var body bytes.Buffer
		if err := wire.WriteMultiBatch(&body, puts); err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/write", &body)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", FrameContentType)
		req.Header.Set("Idempotency-Key", "one-shared-key")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("POST %v: status %d", puts, resp.StatusCode)
		}
		var out struct {
			IDs [][]int `json:"ids"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return resp, out.IDs
	}
	put := func(name string, n int) core.MultiInsert {
		p := core.MultiInsert{Array: name}
		for i := 0; i < n; i++ {
			p.Payloads = append(p.Payloads, core.DensePayload(randDense(rng, side)))
		}
		return p
	}

	both := []core.MultiInsert{put("IdemA", 1), put("IdemB", 2)}
	respAB, idsAB := post(both)
	if respAB.Header.Get("Idempotency-Replayed") != "" {
		t.Fatal("first write claims to be a replay")
	}
	// same key, a different array: a fresh commit, never a replay
	respB, _ := post([]core.MultiInsert{put("IdemB", 1)})
	if respB.Header.Get("Idempotency-Replayed") != "" {
		t.Fatal("same key against a different part table replayed instead of committing")
	}
	if info, _ := store.Info("IdemB"); info.NumVersions != 3 {
		t.Fatalf("IdemB has %d versions, want 3 (a key collision swallowed the write)", info.NumVersions)
	}
	// same key, same part table: a genuine retry, each put replayed with
	// its own ids
	respAB2, idsAB2 := post(both)
	if respAB2.Header.Get("Idempotency-Replayed") != "true" {
		t.Fatal("retry of the same key and part table was not replayed")
	}
	if fmt.Sprint(idsAB2) != fmt.Sprint(idsAB) {
		t.Fatalf("replay returned ids %v, want %v", idsAB2, idsAB)
	}
	if info, _ := store.Info("IdemA"); info.NumVersions != 1 {
		t.Fatalf("IdemA has %d versions after replay, want 1", info.NumVersions)
	}
}

// readyzFaultFS wraps a base FS and, while armed, fails the Write of
// any MANIFEST-*.log append handle — the uncertain-commit failure that
// degrades the whole store (see core's manifest append tests) — and
// every Create, so the background heal prober's disk probe fails too
// and the store stays degraded until the test disarms it.
type readyzFaultFS struct {
	fsio.FS
	mu    sync.Mutex
	armed bool
}

func (f *readyzFaultFS) arm(on bool) {
	f.mu.Lock()
	f.armed = on
	f.mu.Unlock()
}

func (f *readyzFaultFS) hot() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.armed
}

func (f *readyzFaultFS) Create(path string) (fsio.File, error) {
	if f.hot() {
		return nil, fsio.ErrIO
	}
	return f.FS.Create(path)
}

func (f *readyzFaultFS) Append(path string) (fsio.File, error) {
	file, err := f.FS.Append(path)
	base := filepath.Base(path)
	if err != nil || !strings.HasPrefix(base, "MANIFEST-") || !strings.HasSuffix(base, ".log") {
		return file, err
	}
	return &readyzFaultFile{File: file, fs: f}, nil
}

type readyzFaultFile struct {
	fsio.File
	fs *readyzFaultFS
}

func (fl *readyzFaultFile) Write(p []byte) (int, error) {
	if fl.fs.hot() {
		return 0, fsio.ErrIO
	}
	return fl.File.Write(p)
}

// TestDegradedRetryAfterFromHealInterval pins the 503 Retry-After hint
// on a degraded store: it is derived from the heal prober's cadence,
// ceil(core.HealInterval) plus at most a second of jitter, on both the
// write path and /readyz.
func TestDegradedRetryAfterFromHealInterval(t *testing.T) {
	const side = 16
	ffs := &readyzFaultFS{FS: fsio.OS}
	opts := core.DefaultOptions()
	opts.ChunkBytes = 4 << 10
	opts.Durability = true
	opts.FS = ffs
	st, err := core.Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ffs.arm(false)
		st.Close()
	}()
	if err := st.CreateArray(denseSchema("Deg", side)); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	if _, err := st.Insert("Deg", core.DensePayload(randDense(rng, side))); err != nil {
		t.Fatal(err)
	}
	_, _, ts := newTestServer(t, Config{Store: st})

	// degrade the store: the manifest append fails mid-write, an
	// uncertain commit
	ffs.arm(true)
	if _, err := st.Insert("Deg", core.DensePayload(randDense(rng, side))); err == nil {
		t.Fatal("insert with a failing manifest append succeeded")
	}
	if h := st.Health(); !h.StoreDegraded {
		t.Fatalf("store not degraded: %+v", h)
	}

	secs := int((core.HealInterval + time.Second - 1) / time.Second)
	wantRetry := func(resp *http.Response, label string) {
		t.Helper()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s: status %d, want 503", label, resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra != strconv.Itoa(secs) && ra != strconv.Itoa(secs+1) {
			t.Fatalf("%s: Retry-After %q, want %d or %d (derived from the %s heal interval)", label, ra, secs, secs+1, core.HealInterval)
		}
	}

	var body bytes.Buffer
	if err := wire.WriteMultiBatch(&body, []core.MultiInsert{{Array: "Deg", Payloads: []core.Payload{core.DensePayload(randDense(rng, side))}}}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/write", FrameContentType, &body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	wantRetry(resp, "degraded insert")

	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	wantRetry(resp, "readyz")
}

// countingWriter is a ResponseWriter that discards the body and counts
// its bytes.
type countingWriter struct {
	h http.Header
	n int64
}

func (w *countingWriter) Header() http.Header         { return w.h }
func (w *countingWriter) WriteHeader(int)             {}
func (w *countingWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }

// TestSelectReplyAllocs is the select path's allocation gate: a
// full-plane select of a cached 512×512 int32 version with 256 KiB
// chunks allocates less than 64 KiB on the server — its 1 MiB plane goes
// out as the four cached chunks, never zeroed or assembled — and the
// zero-copy counter rises by the plane's bytes.
func TestSelectReplyAllocs(t *testing.T) {
	const side, reqs = 512, 16
	opts := core.DefaultOptions()
	opts.ChunkBytes = 256 << 10
	opts.CacheBytes = 16 << 20
	store, err := core.Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv, err := New(Config{Store: store, Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.CreateArray(denseSchema("H", side)); err != nil {
		t.Fatal(err)
	}
	d := randDense(rand.New(rand.NewSource(49)), side)
	if _, err := store.Insert("H", core.DensePayload(d)); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/arrays/H/select?versions=1", nil)
	req.SetPathValue("name", "H")
	w := &countingWriter{h: http.Header{}}
	srv.handleSelect(w, req) // the insert cached the chunks; this warms the rest
	if w.n < d.SizeBytes() {
		t.Fatalf("select wrote %d bytes, want at least the plane's %d", w.n, d.SizeBytes())
	}
	zc := srv.metrics.zcBytes.Load()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range reqs {
		srv.handleSelect(w, req)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / reqs; per >= 64<<10 {
		t.Errorf("a full-plane select allocates %d bytes on the server, want < 64 KiB", per)
	}
	if got := srv.metrics.zcBytes.Load() - zc; got != reqs*d.SizeBytes() {
		t.Errorf("zero-copy bytes rose by %d over %d selects, want %d", got, reqs, reqs*d.SizeBytes())
	}
}

// TestWriteRetryReplaysBody: a client write whose first attempt commits
// but whose answer is lost — a front handler reads the whole body,
// passes it to the real one and answers 503 instead — retries with a
// byte-identical body (the segments re-sent from the caller's plane,
// Content-Length set on both attempts) under the same Idempotency-Key,
// and the server replays the first commit: exactly one version.
func TestWriteRetryReplaysBody(t *testing.T) {
	srv, store, _ := newTestServer(t, Config{})
	type attempt struct {
		body   []byte
		length int64
		key    string
	}
	var mu sync.Mutex
	var attempts []attempt
	inner := srv.Handler()
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/write" {
			inner.ServeHTTP(w, r)
			return
		}
		raw, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		mu.Lock()
		attempts = append(attempts, attempt{raw, r.ContentLength, r.Header.Get("Idempotency-Key")})
		first := len(attempts) == 1
		mu.Unlock()
		r.Body = io.NopCloser(bytes.NewReader(raw))
		if first {
			lost := httptest.NewRecorder()
			inner.ServeHTTP(lost, r)
			if lost.Code != http.StatusCreated {
				t.Errorf("first attempt: status %d, want 201", lost.Code)
			}
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "answer lost"})
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(front.Close)
	c := client.New(front.URL, client.WithRetryPolicy(client.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond}))
	const side = 64
	if err := c.CreateArray(denseSchema("Retry", side)); err != nil {
		t.Fatal(err)
	}
	puts := []core.MultiInsert{{Array: "Retry", Payloads: []core.Payload{core.DensePayload(randDense(rand.New(rand.NewSource(51)), side))}}}
	ids, err := c.Write(context.Background(), puts)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(ids) != "[[1]]" {
		t.Fatalf("write returned ids %v, want [[1]]", ids)
	}
	var want bytes.Buffer
	if err := wire.WriteMultiBatch(&want, puts); err != nil {
		t.Fatal(err)
	}
	if len(attempts) != 2 {
		t.Fatalf("server saw %d write attempts, want 2", len(attempts))
	}
	for i, a := range attempts {
		if !bytes.Equal(a.body, want.Bytes()) {
			t.Errorf("attempt %d carried %d bytes that differ from the %d-byte body", i, len(a.body), want.Len())
		}
		if a.length != int64(want.Len()) {
			t.Errorf("attempt %d had Content-Length %d, want %d", i, a.length, want.Len())
		}
		if a.key == "" || a.key != attempts[0].key {
			t.Errorf("attempt %d had Idempotency-Key %q, want the first attempt's %q", i, a.key, attempts[0].key)
		}
	}
	if info, err := store.Info("Retry"); err != nil || info.NumVersions != 1 {
		t.Fatalf("Retry has %d versions (%v), want exactly 1", info.NumVersions, err)
	}
}

// BenchmarkClientSelect is a served select end to end from the client's
// side: client.Client over httptest with a default http.Transport,
// reading a cached 512×512 int32 version with 256 KiB chunks whole
// (four 256×256 tiles) and as a 128×128 box across four chunks.
func BenchmarkClientSelect(b *testing.B) {
	const side = 512
	opts := core.DefaultOptions()
	opts.ChunkBytes = 256 << 10
	opts.CacheBytes = 16 << 20
	store, err := core.Open(b.TempDir(), opts)
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	srv, err := New(Config{Store: store, Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if err := store.CreateArray(denseSchema("H", side)); err != nil {
		b.Fatal(err)
	}
	d := randDense(rand.New(rand.NewSource(54)), side)
	if _, err := store.Insert("H", core.DensePayload(d)); err != nil {
		b.Fatal(err)
	}
	c := client.New(ts.URL, client.WithHTTPClient(&http.Client{Transport: &http.Transport{}}))
	defer c.Close()
	for _, bc := range []struct {
		name string
		box  array.Box
	}{
		{"full", array.Box{}},
		{"region", array.NewBox([]int64{192, 192}, []int64{320, 320})},
	} {
		b.Run(bc.name, func(b *testing.B) {
			q := core.ReadQuery{Array: "H", IDs: []int{1}, Box: bc.box}
			want := d
			if bc.box.NDim() > 0 {
				want, _ = d.Slice(bc.box)
			}
			b.SetBytes(want.SizeBytes())
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				planes, err := c.Read(context.Background(), q)
				if err != nil {
					b.Fatal(err)
				}
				if planes[0].Dense.NumCells() != want.NumCells() {
					b.Fatalf("read %d cells, want %d", planes[0].Dense.NumCells(), want.NumCells())
				}
			}
			b.StopTimer()
			planes, err := c.Read(context.Background(), q)
			if err != nil || !planes[0].Dense.Equal(want) {
				b.Fatalf("select differs from the inserted plane: %v", err)
			}
		})
	}
}
