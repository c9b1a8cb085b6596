package main

import (
	"errors"
	"fmt"
	"hash/crc32"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"arrayvers"
	"arrayvers/client"
)

const (
	numClients   = 2 // client goroutines, one connection each: nproc is 2
	numSetups    = 3 // set-ups per untraced run; setup_s is their median
	numReopens   = 3 // restarts after the traced pass; diag.reopen_ms is their median
	sampleEvery  = 25
	matrixSample = 4096 // ReorganizeOptions.MatrixSample
)

// config is what a run needs from the command line.
type config struct {
	out      string // result, traces, daemon logs, temporary stores
	avstored string // the built daemon
	smoke    bool
}

// versionRef is one stored version and what reading it must return.
type versionRef struct {
	array  string
	id     int
	crc    uint32
	boxCRC []uint32
}

// sample is one finished op.
type sample struct {
	kind   opKind
	ns     int64 // latency; on the open loop, from the op's due time
	lateNs int64 // open loop: how long after its due time the op was sent
	doneNs int64 // when the op finished, from the start of the pass
	failed bool
}

// countingTransport counts the HTTP attempts of the op clients (trace
// fetches apart), so client retries show as attempts beyond the calls
// made.
type countingTransport struct {
	rt       http.RoundTripper
	attempts *atomic.Int64
}

func (t countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if !strings.HasPrefix(r.URL.Path, "/debug/") {
		t.attempts.Add(1)
	}
	return t.rt.RoundTrip(r)
}

// env is one set-up store with its daemon and clients.
type env struct {
	cfg      config
	w        *workload
	g        *generated
	dir      string
	logPath  string
	d        *daemon
	clients  []*client.Client // numClients for the ops, one more for admin calls
	attempts atomic.Int64
	calls    atomic.Int64

	mu    sync.Mutex
	refs  []versionRef // every version of the primary array, oldest first
	refsB []versionRef // every version of the second array
	fails []string     // first few failure messages

	reorgS float64 // the timed remote Reorganize
}

func (e *env) failf(format string, args ...any) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.fails) < 5 {
		e.fails = append(e.fails, fmt.Sprintf(format, args...))
	}
}

func schema(name string, side int) arrayvers.Schema {
	return arrayvers.Schema{
		Name:  name,
		Dims:  []arrayvers.Dimension{{Name: "Y", Lo: 0, Hi: int64(side - 1)}, {Name: "X", Lo: 0, Hi: int64(side - 1)}},
		Attrs: []arrayvers.Attribute{{Name: "v", Type: arrayvers.Int32}},
	}
}

// buildFixture writes the initial versions through an embedded store, as
// one batch per array: the chunk size persists with the array, and the
// daemon has no flag for it.
func buildFixture(dir string, w *workload, g *generated) error {
	st, err := pinOpen(dir, 0, false, nil)
	if err != nil {
		return err
	}
	load := func(name string, s *series) error {
		if err := st.CreateArray(schema(name, w.side)); err != nil {
			return err
		}
		ps := make([]arrayvers.Payload, len(s.planes))
		for i, d := range s.planes {
			ps[i] = arrayvers.DensePayload(d)
		}
		_, err := st.InsertMulti([]arrayvers.MultiInsert{{Array: name, Payloads: ps}})
		return err
	}
	err = load(w.array, g.fixture)
	if err == nil && w.arrayB != "" {
		err = load(w.arrayB, g.fixtureB)
	}
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	return err
}

func seriesRefs(array string, s *series) []versionRef {
	refs := make([]versionRef, len(s.planes))
	for i := range refs {
		refs[i] = versionRef{array: array, id: i + 1, crc: s.crc[i], boxCRC: s.boxCRC[i]}
	}
	return refs
}

var storeSeq atomic.Int64

// setup builds the fixture store, starts the daemon on it, runs the
// workload's reorganize and warms up. It is the whole of setup_s.
func setup(cfg config, w *workload, g *generated) (*env, error) {
	e := &env{cfg: cfg, w: w, g: g}
	e.dir = filepath.Join(cfg.out, "work", fmt.Sprintf("%s-%d-%d", w.name, os.Getpid(), storeSeq.Add(1)))
	e.logPath = filepath.Join(cfg.out, w.name+".avstored.log")
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, err
	}
	trackDir(e.dir)
	if err := buildFixture(e.dir, w, g); err != nil {
		return nil, fmt.Errorf("build fixture: %w", err)
	}
	e.refs = seriesRefs(w.array, g.fixture)
	if w.arrayB != "" {
		e.refsB = seriesRefs(w.arrayB, g.fixtureB)
	}
	if _, err := e.start(); err != nil {
		return nil, err
	}
	if err := e.reorganize(); err != nil {
		return nil, err
	}
	return e, e.warmUp()
}

// start execs the daemon on the store and connects the clients.
func (e *env) start() (time.Duration, error) {
	d, ready, err := startDaemon(e.cfg.avstored, e.dir, e.w.cacheFlag, e.logPath)
	if err != nil {
		return 0, err
	}
	e.d = d
	e.clients = e.clients[:0]
	for i := 0; i <= numClients; i++ {
		var rt http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: 1}
		if i < numClients {
			rt = countingTransport{rt: rt, attempts: &e.attempts}
		}
		hc := &http.Client{Timeout: client.DefaultTimeout, Transport: rt}
		e.clients = append(e.clients, client.New(d.url, client.WithHTTPClient(hc)))
	}
	return ready, nil
}

func (e *env) admin() *client.Client { return e.clients[numClients] }

func (e *env) stop() error {
	for _, c := range e.clients {
		_ = c.Close()
	}
	d := e.d
	e.d = nil
	return d.stop()
}

// teardown stops the daemon and removes the store.
func (e *env) teardown() error {
	var err error
	if e.d != nil {
		err = e.stop()
	}
	removeDir(e.dir)
	return err
}

func (e *env) reorganize() error {
	t0 := time.Now()
	err := e.admin().Reorganize(e.w.array, arrayvers.ReorganizeOptions{Policy: arrayvers.PolicyAlgorithm2, MatrixSample: matrixSample})
	e.reorgS = time.Since(t0).Seconds()
	if err != nil {
		return fmt.Errorf("reorganize %s: %w", e.w.array, err)
	}
	return nil
}

// warmUp opens every connection and, where the workload says so, reads
// every fixture version so that the cache holds them all.
func (e *env) warmUp() error {
	for i, c := range e.clients {
		ref := e.refs[len(e.refs)-1]
		if e.w.warmAll && i == 0 {
			for _, r := range e.refs {
				if _, err := e.checkSelect(c, r); err != nil {
					return fmt.Errorf("warm-up: %w", err)
				}
			}
		}
		if _, err := e.checkSelect(c, ref); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// checkSelect reads one whole version and checks it, returning its size.
func (e *env) checkSelect(c *client.Client, r versionRef) (int64, error) {
	pl, err := c.Select(r.array, r.id)
	if err != nil {
		return 0, err
	}
	if pl.Dense == nil || crc32.ChecksumIEEE(pl.Dense.Bytes()) != r.crc {
		return 0, fmt.Errorf("select %s@%d: wrong bytes", r.array, r.id)
	}
	return pl.Dense.SizeBytes(), nil
}

// target resolves the version a read op addresses.
func (e *env) target(o *op) versionRef {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.w.rate == 0 {
		return e.refs[o.version-1]
	}
	return e.refs[len(e.refs)-1-o.version]
}

func (e *env) acked(array string, id int, s *series, i int) {
	ref := versionRef{array: array, id: id, crc: s.crc[i], boxCRC: s.boxCRC[i]}
	e.mu.Lock()
	defer e.mu.Unlock()
	if array == e.w.array {
		e.refs = append(e.refs, ref)
	} else {
		e.refsB = append(e.refsB, ref)
	}
}

// do runs one op through the public client and checks the reply. It
// returns the bytes of array data the op moved.
func (e *env) do(c *client.Client, o *op) (int64, error) {
	e.calls.Add(1)
	w, g := e.w, e.g
	switch o.kind {
	case opSelect:
		return e.checkSelect(c, e.target(o))
	case opRegion:
		r := e.target(o)
		pl, err := c.SelectRegion(r.array, r.id, g.boxes[o.box])
		if err != nil {
			return 0, err
		}
		if pl.Dense == nil || crc32.ChecksumIEEE(pl.Dense.Bytes()) != r.boxCRC[o.box] {
			return 0, fmt.Errorf("select region %s@%d box %d: wrong bytes", r.array, r.id, o.box)
		}
		return pl.Dense.SizeBytes(), nil
	case opInsert:
		d := g.pool.planes[o.pay[0]]
		id, err := c.Insert(w.array, arrayvers.DensePayload(d))
		if err != nil {
			return 0, err
		}
		e.acked(w.array, id, g.pool, o.pay[0])
		return d.SizeBytes(), nil
	case opBatch:
		batch := []arrayvers.MultiInsert{{Array: w.array}, {Array: w.arrayB}}
		var n int64
		for _, i := range o.pay {
			batch[0].Payloads = append(batch[0].Payloads, arrayvers.DensePayload(g.pool.planes[i]))
			n += g.pool.planes[i].SizeBytes()
		}
		for _, i := range o.payB {
			batch[1].Payloads = append(batch[1].Payloads, arrayvers.DensePayload(g.poolB.planes[i]))
			n += g.poolB.planes[i].SizeBytes()
		}
		ids, err := c.InsertMulti(batch)
		if err != nil {
			return 0, err
		}
		if len(ids[w.array]) != len(o.pay) || len(ids[w.arrayB]) != len(o.payB) {
			return 0, fmt.Errorf("insert multi: acked %v for %d+%d payloads", ids, len(o.pay), len(o.payB))
		}
		for k, i := range o.pay {
			e.acked(w.array, ids[w.array][k], g.pool, i)
		}
		for k, i := range o.payB {
			e.acked(w.arrayB, ids[w.arrayB][k], g.poolB, i)
		}
		return n, nil
	}
	return 0, fmt.Errorf("unknown op kind %d", o.kind)
}

// verify checks that the store holds exactly the fixture plus every acked
// insert, and reads back every sampleEvery-th version of each array. It
// returns the checks made and how many of them failed.
func (e *env) verify() (checks, failed int) {
	c := e.admin()
	for _, refs := range [][]versionRef{e.refs, e.refsB} {
		if len(refs) == 0 {
			continue
		}
		checks++
		info, err := c.Info(refs[0].array)
		if err != nil || info.NumVersions != len(refs) {
			failed++
			e.failf("%s: %d versions stored, %d acked (err %v)", refs[0].array, info.NumVersions, len(refs), err)
		}
		byID := append([]versionRef(nil), refs...)
		sort.Slice(byID, func(i, j int) bool { return byID[i].id < byID[j].id })
		for i := 0; i < len(byID); i += sampleEvery {
			checks++
			if _, err := e.checkSelect(c, byID[i]); err != nil {
				failed++
				e.failf("read back: %v", err)
			}
		}
	}
	return checks, failed
}

// storedRatio is bytes on disk per byte of user data, over every array of
// the workload, as the daemon reports them.
func (e *env) storedRatio() (float64, error) {
	var disk, user int64
	for _, name := range []string{e.w.array, e.w.arrayB} {
		if name == "" {
			continue
		}
		info, err := e.admin().Info(name)
		if err != nil {
			return 0, err
		}
		disk += info.DiskBytes
		user += int64(info.NumVersions) * info.LogicalSize
	}
	if user == 0 {
		return 0, errors.New("store holds no versions")
	}
	return float64(disk) / float64(user), nil
}

// reopen restarts the daemon on the store it just served, n times,
// checking the store after each, and returns the median time from exec to
// /readyz in ms.
func (e *env) reopen(n int) (ms float64, checks, failed int, err error) {
	var times []float64
	for i := 0; i < n; i++ {
		if err := e.stop(); err != nil {
			return 0, checks, failed, err
		}
		ready, err := e.start()
		if err != nil {
			return 0, checks, failed, err
		}
		times = append(times, float64(ready.Nanoseconds())/1e6)
		c, f := e.verify()
		checks, failed = checks+c, failed+f
	}
	return median(times), checks, failed, nil
}
