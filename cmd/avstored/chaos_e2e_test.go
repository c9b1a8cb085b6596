package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"arrayvers"
	"arrayvers/client"
	"arrayvers/internal/array"
	"arrayvers/internal/core"
	"arrayvers/internal/fsio"
	"arrayvers/internal/server"
)

// End-to-end chaos test: the full service stack (core store on a flaky
// disk, HTTP server, retrying clients) under simultaneous network and
// disk faults. A chaos RoundTripper injects delays, connection resets,
// lost acks (the request executes but the response never arrives), bad
// gateways, and truncated response bodies between 8 concurrent
// idempotent clients and the server; midway the disk "fills up"
// (FailAll ENOSPC), which must flip the store into degraded read-only
// mode (readyz 503) and, once the disk recovers, the background heal
// prober must flip it back (readyz 200) with no operator involvement.
//
// The invariants at the end:
//   - zero duplicate versions: every retried insert committed at most
//     once (idempotency keys + server-side replay);
//   - every acknowledged insert reads back byte-identical;
//   - at least one degraded -> healed transition was observed;
//   - the store is writable and verifies clean.
//
// When CHAOS_JSON names a file, the run writes a JSON summary there for
// the CI gate.

// chaosTransport injects client-visible network faults around an inner
// RoundTripper. The lost-ack flavor is the important one: the request
// reaches the server and executes, but the client sees a transport
// error — exactly the window where a naive retry duplicates an insert.
type chaosTransport struct {
	inner http.RoundTripper

	mu  sync.Mutex
	rng *rand.Rand

	lostAcks  atomic.Int64
	resets    atomic.Int64
	badGws    atomic.Int64
	truncated atomic.Int64
}

func (c *chaosTransport) roll() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rng.Float64()
}

func (c *chaosTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	r := c.roll()
	switch {
	case r < 0.05:
		// connection reset before the request is sent
		c.resets.Add(1)
		return nil, errors.New("chaos: connection reset")
	case r < 0.10:
		// the request executes server-side but the ack is lost
		resp, err := c.inner.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		c.lostAcks.Add(1)
		return nil, errors.New("chaos: response lost")
	case r < 0.13:
		// a sick hop answers for the server
		c.badGws.Add(1)
		return &http.Response{
			StatusCode: http.StatusBadGateway,
			Status:     "502 Bad Gateway",
			Proto:      req.Proto, ProtoMajor: req.ProtoMajor, ProtoMinor: req.ProtoMinor,
			Header:  http.Header{"Content-Type": []string{"application/json"}},
			Body:    io.NopCloser(newStringReader(`{"error":"chaos: bad gateway"}`)),
			Request: req,
		}, nil
	case r < 0.16:
		// response starts, then the connection dies mid-body
		resp, err := c.inner.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		c.truncated.Add(1)
		resp.Body = &truncatingBody{inner: resp.Body, remaining: 3}
		return resp, nil
	case r < 0.22:
		time.Sleep(time.Duration(5+int(c.roll()*20)) * time.Millisecond)
	}
	return c.inner.RoundTrip(req)
}

func newStringReader(s string) io.Reader { return io.LimitReader(&stringReader{s: s}, int64(len(s))) }

type stringReader struct {
	s   string
	off int
}

func (r *stringReader) Read(p []byte) (int, error) {
	if r.off >= len(r.s) {
		return 0, io.EOF
	}
	n := copy(p, r.s[r.off:])
	r.off += n
	return n, nil
}

// truncatingBody yields a few bytes, then fails like a dropped
// connection.
type truncatingBody struct {
	inner     io.ReadCloser
	remaining int
}

func (t *truncatingBody) Read(p []byte) (int, error) {
	if t.remaining <= 0 {
		return 0, errors.New("chaos: connection dropped mid-body")
	}
	if len(p) > t.remaining {
		p = p[:t.remaining]
	}
	n, err := t.inner.Read(p)
	t.remaining -= n
	return n, err
}

func (t *truncatingBody) Close() error { return t.inner.Close() }

// chaosContent builds a version whose first cell records the seed, so
// live versions can be mapped back to the logical insert that created
// them (two versions with the same seed = a duplicated retry).
func chaosContent(seed int64) *arrayvers.Dense {
	d := array.MustDense(array.Int32, []int64{16, 16})
	d.SetBits(0, seed%100000)
	for i := int64(1); i < d.NumCells(); i++ {
		d.SetBits(i, (i*13+seed*389)%100000)
	}
	return d
}

func waitStatus(t *testing.T, url string, want int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err == nil {
			code := resp.StatusCode
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if code == want {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("%s never returned %d within %s", url, want, timeout)
}

func TestChaosE2E(t *testing.T) {
	flaky := fsio.NewFlaky(fsio.OS)
	opts := core.DefaultOptions()
	opts.Durability = true
	opts.FS = flaky
	opts.ChunkBytes = 1 << 10
	store, err := core.Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	srv, err := server.New(server.Config{
		Store:       store,
		MaxInFlight: 32,
		Logger:      log.New(io.Discard, "", 0), // thousands of chaotic requests; keep the test log readable
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	schema := arrayvers.Schema{
		Name:  "Chaos",
		Dims:  []arrayvers.Dimension{{Name: "Y", Lo: 0, Hi: 15}, {Name: "X", Lo: 0, Hi: 15}},
		Attrs: []arrayvers.Attribute{{Name: "V", Type: array.Int32}},
	}
	clean := client.New(ts.URL)
	if err := clean.CreateArray(schema); err != nil {
		t.Fatal(err)
	}

	chaos := &chaosTransport{inner: ts.Client().Transport, rng: rand.New(rand.NewSource(42))}
	retry := client.RetryPolicy{MaxAttempts: 10, BaseDelay: 20 * time.Millisecond, MaxDelay: 500 * time.Millisecond}

	var (
		mu      sync.Mutex
		acked   = map[int]int64{} // version id -> seed
		seedSrc atomic.Int64
		stop    atomic.Bool
		wg      sync.WaitGroup
	)
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			cw := client.New(ts.URL,
				client.WithHTTPClient(&http.Client{Transport: chaos, Timeout: 10 * time.Second}),
				client.WithRetryPolicy(retry))
			for i := 0; !stop.Load(); i++ {
				if w%4 == 0 && i%5 == 4 {
					// a batch client in the mix: batches share one
					// idempotency key, so a replayed batch must return
					// the original id list atomically
					s1, s2 := seedSrc.Add(1), seedSrc.Add(1)
					written, err := cw.Write(context.Background(), []arrayvers.MultiInsert{{Array: "Chaos", Payloads: []arrayvers.Payload{
						arrayvers.DensePayload(chaosContent(s1)),
						arrayvers.DensePayload(chaosContent(s2)),
					}}})
					if err == nil && len(written[0]) == 2 {
						mu.Lock()
						acked[written[0][0]], acked[written[0][1]] = s1, s2
						mu.Unlock()
					}
					continue
				}
				seed := seedSrc.Add(1)
				id, err := cw.Insert("Chaos", arrayvers.DensePayload(chaosContent(seed)))
				if err == nil {
					mu.Lock()
					acked[id] = seed
					mu.Unlock()
				}
			}
		}()
	}

	// phase 1: chaos-only traffic until a base of inserts is acked
	deadline := time.Now().Add(20 * time.Second)
	for {
		mu.Lock()
		n := len(acked)
		mu.Unlock()
		if n >= 16 || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	// phase 2: the disk fills up; the store must degrade and readyz
	// must start failing while healthz (liveness) stays green
	flaky.FailAll(fsio.ErrDiskFull)
	waitStatus(t, ts.URL+"/readyz", http.StatusServiceUnavailable, 10*time.Second)
	waitStatus(t, ts.URL+"/healthz", http.StatusOK, time.Second)
	h, err := clean.Health()
	if err != nil {
		t.Fatalf("health while degraded: %v", err)
	}
	if !h.Degraded || !h.StoreDegraded {
		t.Fatalf("health while degraded: %+v", h)
	}

	// phase 3: the disk recovers; the background heal prober must flip
	// the store back to writable with no operator action
	flaky.Heal()
	waitStatus(t, ts.URL+"/readyz", http.StatusOK, 10*time.Second)

	// phase 4: a little more healthy traffic, then stop
	time.Sleep(300 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	mu.Lock()
	ackedCopy := make(map[int]int64, len(acked))
	for id, seed := range acked {
		ackedCopy[id] = seed
	}
	mu.Unlock()
	if len(ackedCopy) == 0 {
		t.Fatal("no inserts acknowledged; chaos drowned the workload")
	}

	// invariant: every acknowledged insert reads back byte-identical
	info, err := clean.Info("Chaos")
	if err != nil {
		t.Fatal(err)
	}
	live := map[int]bool{}
	for _, vi := range info.Versions {
		live[vi.ID] = true
	}
	for id, seed := range ackedCopy {
		if !live[id] {
			t.Fatalf("acknowledged version %d is not live", id)
		}
		pl, err := clean.Select("Chaos", id)
		if err != nil {
			t.Fatalf("acknowledged version %d unreadable: %v", id, err)
		}
		if !pl.Dense.Equal(chaosContent(seed)) {
			t.Fatalf("acknowledged version %d corrupted", id)
		}
	}

	// invariant: zero duplicate versions — no logical insert (seed)
	// appears twice, no matter how many times the network made the
	// client retry it
	seedCount := map[int64]int{}
	duplicates := 0
	for _, vi := range info.Versions {
		pl, err := clean.Select("Chaos", vi.ID)
		if err != nil {
			t.Fatalf("live version %d unreadable: %v", vi.ID, err)
		}
		s := pl.Dense.Bits(0)
		seedCount[s]++
		if seedCount[s] > 1 {
			duplicates++
			t.Errorf("seed %d committed %d times (duplicate insert)", s, seedCount[s])
		}
	}

	rep, err := clean.Verify("Chaos")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("post-chaos verify: %v", rep.Problems)
	}
	st, err := clean.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.DegradedEntered < 1 || st.DegradedHealed < 1 {
		t.Fatalf("no degraded->healed transition observed: %+v", st)
	}
	if st.StoreDegraded != 0 || st.DegradedArrays != 0 {
		t.Fatalf("store still degraded at the end: %+v", st)
	}
	// and the store is writable again
	if _, err := clean.Insert("Chaos", arrayvers.DensePayload(chaosContent(999999))); err != nil {
		t.Fatalf("insert after chaos: %v", err)
	}

	t.Logf("chaos: %d acked, %d live, faults injected: %d lost acks, %d resets, %d 502s, %d truncations; degraded %d healed %d, writes rejected %d",
		len(ackedCopy), info.NumVersions, chaos.lostAcks.Load(), chaos.resets.Load(), chaos.badGws.Load(),
		chaos.truncated.Load(), st.DegradedEntered, st.DegradedHealed, st.WritesRejectedDegraded)

	if path := os.Getenv("CHAOS_JSON"); path != "" {
		summary := map[string]int64{
			"acked":                    int64(len(ackedCopy)),
			"live_versions":            int64(info.NumVersions),
			"duplicate_versions":       int64(duplicates),
			"degraded_entered":         st.DegradedEntered,
			"degraded_healed":          st.DegradedHealed,
			"writes_rejected_degraded": st.WritesRejectedDegraded,
			"lost_acks":                chaos.lostAcks.Load(),
			"resets":                   chaos.resets.Load(),
			"bad_gateways":             chaos.badGws.Load(),
			"truncated_bodies":         chaos.truncated.Load(),
		}
		raw, _ := json.MarshalIndent(summary, "", "  ")
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatalf("write %s: %v", path, err)
		}
	}
}
