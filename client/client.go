// Package client is the Go client for an avstored daemon: it mirrors
// the embedded arrayvers.Store API method-for-method (same names, same
// argument and result types) so a program can switch between linking
// the store and talking to a shared server by changing one line:
//
//	store, err := arrayvers.Open(dir, arrayvers.DefaultOptions())
//	// becomes
//	store := client.New("http://localhost:7421")
//
// Metadata getters that are infallible on the embedded store (such as
// ListArrays) necessarily grow an error result here, since every call
// crosses the network. Control messages travel as JSON; array payloads
// travel as internal/wire binary frames, decoded back into the same
// Dense/Sparse/VersionInfo types the embedded API returns.
package client

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	mrand "math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"arrayvers"
	"arrayvers/internal/cliutil"
	"arrayvers/internal/wire"
)

// frameContentType labels binary frame requests/responses; it must
// match internal/server.FrameContentType (duplicated to keep the client
// importable without the server package).
const frameContentType = "application/x-arrayvers-frame"

// DefaultTimeout bounds each request end to end. It sits above the
// server's own per-request timeout (60s) so a slow-but-answering server
// reports its own 503 rather than the client giving up first; a hung
// connection still can't stall the caller forever.
const DefaultTimeout = 75 * time.Second

// RetryPolicy shapes the client's automatic retries. Retries apply only
// where they cannot duplicate work: reads (GET), requests the server
// rejected before executing (429), and inserts carrying an idempotency
// key (the server replays the committed ids instead of re-inserting).
// Backoff is exponential with full jitter, and a server-provided
// Retry-After hint overrides the computed delay when it is longer.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries including the first;
	// values <= 1 disable retries.
	MaxAttempts int
	// BaseDelay seeds the exponential backoff (doubled per retry).
	BaseDelay time.Duration
	// MaxDelay caps the backoff and any Retry-After hint.
	MaxDelay time.Duration
}

// DefaultRetryPolicy retries transient failures a few times over a few
// seconds — enough to ride out a commit stall, an in-flight-limit
// rejection, or a degraded store mid-heal, without masking a real outage.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseDelay: 100 * time.Millisecond, MaxDelay: 5 * time.Second}
}

// delay computes the sleep before the given retry (1-based), taking the
// larger of the jittered exponential backoff and the server's hint.
func (p RetryPolicy) delay(retry int, hint time.Duration) time.Duration {
	d := p.BaseDelay << (retry - 1)
	if d > p.MaxDelay || d <= 0 {
		d = p.MaxDelay
	}
	if d > 0 {
		d = time.Duration(mrand.Int63n(int64(d))) + d/2 // jitter in [d/2, 3d/2)
	}
	if hint > d {
		d = hint
	}
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	return d
}

// Client talks to one avstored daemon. It is safe for concurrent use.
type Client struct {
	base     string
	hc       *http.Client
	maxFrame int64
	retry    RetryPolicy
	// traceID, when set (see WithTrace), is stamped on every outgoing
	// request so the server joins the caller's trace instead of minting
	// its own.
	traceID string
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (custom
// transports, test doubles). The replacement's own Timeout is kept as
// given — combine with WithTimeout to change it.
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithTimeout overrides the per-request timeout (DefaultTimeout).
// Zero disables the bound entirely.
func WithTimeout(d time.Duration) Option { return func(c *Client) { c.hc.Timeout = d } }

// WithRetryPolicy overrides the automatic retry behavior
// (DefaultRetryPolicy); RetryPolicy{MaxAttempts: 1} disables retries.
func WithRetryPolicy(p RetryPolicy) Option { return func(c *Client) { c.retry = p } }

// WithMaxFrameBytes bounds response frames the client will accept.
func WithMaxFrameBytes(n int64) Option { return func(c *Client) { c.maxFrame = n } }

// New builds a client for the daemon at baseURL (e.g.
// "http://localhost:7421"). It performs no I/O; use Ping to probe the
// connection.
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:     strings.TrimRight(baseURL, "/"),
		hc:       &http.Client{Timeout: DefaultTimeout},
		maxFrame: wire.DefaultMaxFrameBytes,
		retry:    DefaultRetryPolicy(),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Ping checks the daemon's health endpoint.
func (c *Client) Ping() error {
	resp, err := c.hc.Get(c.base + "/healthz")
	if err != nil {
		return fmt.Errorf("client: ping: %w", err)
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("client: ping: server returned %s", resp.Status)
	}
	return nil
}

// --- HTTP plumbing ---

// apiError is a non-2xx response decoded from the server's JSON error
// body.
type apiError struct {
	Status     int
	Message    string
	RetryAfter time.Duration // server's Retry-After hint, 0 if absent
}

func (e *apiError) Error() string {
	return fmt.Sprintf("client: server returned %d: %s", e.Status, e.Message)
}

func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	_ = resp.Body.Close()
}

// checkStatus converts a non-2xx response into an *apiError.
func checkStatus(resp *http.Response) error {
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return nil
	}
	var body struct {
		Error string `json:"error"`
	}
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err := json.Unmarshal(raw, &body); err != nil || body.Error == "" {
		body.Error = strings.TrimSpace(string(raw))
	}
	var hint time.Duration
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		hint = time.Duration(secs) * time.Second
	}
	return &apiError{Status: resp.StatusCode, Message: body.Error, RetryAfter: hint}
}

// newIdemKey generates one idempotency key per logical insert; every
// retry of that insert reuses it, so the server can tell "same insert,
// lost ack" from "new insert".
func newIdemKey() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "" // no entropy: opt out of dedupe rather than reuse a key
	}
	return hex.EncodeToString(b[:])
}

// do issues one request, transparently retrying transient failures
// when a retry cannot duplicate work. body is a byte slice (not a
// Reader) so every attempt replays it from the start.
func (c *Client) do(method, path string, contentType string, body []byte) (*http.Response, error) {
	var b wire.Body
	if len(body) > 0 {
		b = wire.Body{Segs: [][]byte{body}, Len: int64(len(body))}
	}
	return c.doIdem(context.Background(), method, path, contentType, b, "")
}

// doIdem is do with an idempotency key and a context: every attempt
// carries ctx, and cancelling it also ends the wait between retries.
// body is segments plus their length (wire.Body), so every attempt, and
// the transport's own replay through GetBody, re-sends it from the
// caller's memory with its Content-Length set.
func (c *Client) doIdem(ctx context.Context, method, path string, contentType string, body wire.Body, idemKey string) (*http.Response, error) {
	attempts := c.retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for attempt := 1; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, nil)
		if err != nil {
			return nil, fmt.Errorf("client: %w", err)
		}
		if body.Len > 0 {
			req.ContentLength = body.Len
			req.Body = io.NopCloser(body.Reader())
			req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(body.Reader()), nil }
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		if idemKey != "" {
			req.Header.Set("Idempotency-Key", idemKey)
		}
		if c.traceID != "" {
			req.Header.Set(traceHeader, c.traceID)
		}
		resp, err := c.hc.Do(req)
		var hint time.Duration
		if err != nil {
			lastErr = fmt.Errorf("client: %s %s: %w", method, path, err)
			// a transport error may have reached the server: only safe
			// to retry when re-execution is harmless or deduped
			if method != http.MethodGet && idemKey == "" {
				return nil, lastErr
			}
		} else if serr := checkStatus(resp); serr != nil {
			drain(resp)
			lastErr = serr
			ae, _ := serr.(*apiError)
			if !retriableStatus(ae.Status) {
				return nil, serr
			}
			// 429 never entered the handler, so it is retriable even
			// without a key; 502/503/504 may have executed
			if ae.Status != http.StatusTooManyRequests && method != http.MethodGet && idemKey == "" {
				return nil, serr
			}
			hint = ae.RetryAfter
		} else {
			return resp, nil
		}
		if attempt >= attempts {
			return nil, lastErr
		}
		wait := time.NewTimer(c.retry.delay(attempt, hint))
		select {
		case <-wait.C:
		case <-ctx.Done():
			wait.Stop()
			return nil, lastErr
		}
	}
}

// retriableStatus reports whether a status speaks to a transient
// condition (overload, degraded mode, a bad hop) rather than to the
// request itself.
func retriableStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

func (c *Client) getJSON(path string, out any) error {
	resp, err := c.do(http.MethodGet, path, "", nil)
	if err != nil {
		return err
	}
	defer drain(resp)
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (c *Client) sendJSON(method, path string, in, out any) error {
	var body []byte
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("client: %w", err)
		}
		body = raw
	}
	resp, err := c.do(method, path, "application/json", body)
	if err != nil {
		return err
	}
	defer drain(resp)
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// --- array lifecycle and metadata ---

// CreateArray initializes a named array with the given schema.
func (c *Client) CreateArray(schema arrayvers.Schema) error {
	return c.sendJSON(http.MethodPost, "/v1/arrays", schema, nil)
}

// DeleteArray removes an array and all of its versions.
func (c *Client) DeleteArray(name string) error {
	return c.sendJSON(http.MethodDelete, "/v1/arrays/"+url.PathEscape(name), nil, nil)
}

// ListArrays returns the names of all arrays, sorted.
func (c *Client) ListArrays() ([]string, error) {
	var names []string
	err := c.getJSON("/v1/arrays", &names)
	return names, err
}

// Info returns an array's metadata (§II-C) from one server-side
// snapshot: schema, sizes, versions and provenance.
func (c *Client) Info(name string) (arrayvers.ArrayInfo, error) {
	var info arrayvers.ArrayInfo
	err := c.getJSON("/v1/arrays/"+url.PathEscape(name), &info)
	return info, err
}

// Verify runs the server-side integrity check of one array.
func (c *Client) Verify(name string) (arrayvers.VerifyReport, error) {
	var rep arrayvers.VerifyReport
	err := c.getJSON("/v1/arrays/"+url.PathEscape(name)+"/verify", &rep)
	return rep, err
}

// Stats returns the server store's I/O and cache counters.
func (c *Client) Stats() (arrayvers.IOStats, error) {
	var st arrayvers.IOStats
	err := c.getJSON("/v1/stats", &st)
	return st, err
}

// ResetStats zeroes the server store's counters.
func (c *Client) ResetStats() error {
	return c.sendJSON(http.MethodPost, "/v1/stats/reset", nil, nil)
}

// Health reports the server store's degraded-mode state: whether any
// array (or the whole store) is in degraded read-only mode, why, and
// since when. Writes to a degraded array fail with a 503 until the
// server's heal prober recovers it.
func (c *Client) Health() (arrayvers.Health, error) {
	var h arrayvers.Health
	err := c.getJSON("/v1/health", &h)
	return h, err
}

// --- write and select ---

// Write adds versions to one or several arrays in one request and ONE
// server-side commit point: the store's manifest log makes every put
// durable in a single append+fsync, so either every array shows its new
// versions or none does. All three payload forms (dense, sparse,
// delta-list) cross the wire as binary frames. It returns each put's
// new version ids, in put order and payload order. Each call carries a
// fresh idempotency key, so the retry policy can safely re-send after a
// lost ack: the server replays the committed ids instead of writing
// twice. The body is never assembled: each dense plane's cells go out
// from the caller's own buffer (wire.EncodeWrite), on every attempt, so
// a plane must not change until Write returns — as for Store.Write.
func (c *Client) Write(ctx context.Context, puts []arrayvers.MultiInsert) ([][]int, error) {
	body, err := wire.EncodeWrite(puts)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	resp, err := c.doIdem(ctx, http.MethodPost, "/v1/write", frameContentType, body, newIdemKey())
	if err != nil {
		return nil, err
	}
	defer drain(resp)
	var out struct {
		IDs [][]int `json:"ids"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("client: decode write response: %w", err)
	}
	if len(out.IDs) != len(puts) {
		return nil, fmt.Errorf("client: write answered %d puts, sent %d", len(out.IDs), len(puts))
	}
	return out.IDs, nil
}

// Insert adds one version to the named array and returns its ID.
func (c *Client) Insert(name string, p arrayvers.Payload) (int, error) {
	ids, err := c.Write(context.Background(), []arrayvers.MultiInsert{{Array: name, Payloads: []arrayvers.Payload{p}}})
	if err != nil {
		return 0, err
	}
	return ids[0][0], nil
}

// InsertMulti is Write keyed by array name.
func (c *Client) InsertMulti(puts []arrayvers.MultiInsert) (map[string][]int, error) {
	ids, err := c.Write(context.Background(), puts)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]int, len(puts))
	for i, p := range puts {
		out[p.Array] = ids[i]
	}
	return out, nil
}

// Read returns one plane per listed version of the array's attribute
// (empty Attr means the first), restricted to Box (a zero Box means the
// whole array), each in the array's own representation. The request
// carries ctx; the reply is one plane frame per version, and a reply
// with bytes after the last frame is an error.
func (c *Client) Read(ctx context.Context, q arrayvers.ReadQuery) ([]arrayvers.Plane, error) {
	ids := make([]string, len(q.IDs))
	for i, id := range q.IDs {
		ids[i] = strconv.Itoa(id)
	}
	query := "versions=" + strings.Join(ids, ",")
	if q.Attr != "" {
		query += "&attr=" + url.QueryEscape(q.Attr)
	}
	if q.Box.NDim() > 0 {
		query += "&box=" + url.QueryEscape(cliutil.FormatBox(q.Box))
	}
	resp, err := c.doIdem(ctx, http.MethodGet, "/v1/arrays/"+url.PathEscape(q.Array)+"/select?"+query, "", wire.Body{}, "")
	if err != nil {
		return nil, err
	}
	defer drain(resp)
	planes, err := wire.ReadPlanes(resp.Body, len(q.IDs), c.maxFrame)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	return planes, nil
}

// Select returns the full content of one version's first attribute.
func (c *Client) Select(name string, id int) (arrayvers.Plane, error) {
	return c.SelectRegion(name, id, arrayvers.Box{})
}

// SelectRegion returns the hyper-rectangle box of one version's first
// attribute.
func (c *Client) SelectRegion(name string, id int, box arrayvers.Box) (arrayvers.Plane, error) {
	return onePlane(c.Read(context.Background(), arrayvers.ReadQuery{Array: name, IDs: []int{id}, Box: box}))
}

// SelectMulti returns an (N+1)-dimensional stack of the given versions.
func (c *Client) SelectMulti(name string, ids []int) (*arrayvers.Dense, error) {
	return arrayvers.StackPlanes(c.Read(context.Background(), arrayvers.ReadQuery{Array: name, IDs: ids}))
}

// SelectSparseMulti returns the given region of each listed version of
// a sparse array, preserving the sparse representation. A zero box
// selects the whole array.
func (c *Client) SelectSparseMulti(name string, ids []int, box arrayvers.Box) ([]*arrayvers.Sparse, error) {
	planes, err := c.Read(context.Background(), arrayvers.ReadQuery{Array: name, IDs: ids, Box: box})
	return arrayvers.SparsePlanes(name, planes, err)
}

// onePlane unwraps a single-version Read.
func onePlane(planes []arrayvers.Plane, err error) (arrayvers.Plane, error) {
	if err != nil {
		return arrayvers.Plane{}, err
	}
	return planes[0], nil
}

// --- branch, merge, reorganize ---

// Branch creates a new named array whose first version is a copy of the
// given version of an existing array.
func (c *Client) Branch(srcName string, srcVersion int, newName string) error {
	body := map[string]any{"version": srcVersion, "newName": newName}
	return c.sendJSON(http.MethodPost, "/v1/arrays/"+url.PathEscape(srcName)+"/branch", body, nil)
}

// Merge combines two or more parent versions into a new array.
func (c *Client) Merge(newName string, parents []arrayvers.VersionRef) error {
	body := map[string]any{"newName": newName, "parents": parents}
	return c.sendJSON(http.MethodPost, "/v1/merge", body, nil)
}

// Reorganize re-encodes an array's versions under the chosen layout
// policy on the server.
func (c *Client) Reorganize(name string, opts arrayvers.ReorganizeOptions) error {
	body := map[string]any{
		"policy": opts.Policy.String(),
	}
	if opts.MatrixSample > 0 {
		body["matrixSample"] = opts.MatrixSample
	}
	if opts.BatchK > 0 {
		body["batchK"] = opts.BatchK
	}
	if len(opts.Workload) > 0 {
		body["workload"] = opts.Workload
	}
	return c.sendJSON(http.MethodPost, "/v1/arrays/"+url.PathEscape(name)+"/reorganize", body, nil)
}

// Tune prices the array's layout against the workload-aware one for
// the given workload on the server, reorganizes when the projected
// savings reach the threshold, and returns the report either way.
func (c *Client) Tune(name string, wl []arrayvers.Query) (arrayvers.TuneReport, error) {
	var rep arrayvers.TuneReport
	body := map[string]any{"workload": wl}
	err := c.sendJSON(http.MethodPost, "/v1/arrays/"+url.PathEscape(name)+"/tune", body, &rep)
	return rep, err
}

// DeleteVersion marks one version deleted.
func (c *Client) DeleteVersion(name string, id int) error {
	return c.sendJSON(http.MethodPost, "/v1/arrays/"+url.PathEscape(name)+"/delete-version",
		map[string]any{"version": id}, nil)
}

// Compact rewrites an array's chunk files keeping only live payloads.
func (c *Client) Compact(name string) error {
	return c.sendJSON(http.MethodPost, "/v1/arrays/"+url.PathEscape(name)+"/compact", nil, nil)
}

// --- AQL ---

// Query executes one AQL statement on the server and returns the result
// in the same shape the embedded Engine produces: array output for
// SELECT (framed over the wire), names for VERSIONS/LIST, a message
// otherwise.
func (c *Client) Query(stmt string) (arrayvers.AQLResult, error) {
	resp, err := c.do(http.MethodPost, "/v1/aql", "application/json",
		[]byte(fmt.Sprintf(`{"stmt":%s}`, mustJSON(stmt))))
	if err != nil {
		return arrayvers.AQLResult{}, err
	}
	defer drain(resp)
	if strings.HasPrefix(resp.Header.Get("Content-Type"), frameContentType) {
		planes, err := wire.ReadPlanes(resp.Body, 1, c.maxFrame)
		if err != nil {
			return arrayvers.AQLResult{}, fmt.Errorf("client: %w", err)
		}
		return arrayvers.AQLResult{Dense: planes[0].Dense, Sparse: planes[0].Sparse}, nil
	}
	var out struct {
		Message string   `json:"message"`
		Names   []string `json:"names"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return arrayvers.AQLResult{}, fmt.Errorf("client: decode aql response: %w", err)
	}
	return arrayvers.AQLResult{Message: out.Message, Names: out.Names}, nil
}

func mustJSON(v any) string {
	raw, _ := json.Marshal(v)
	return string(raw)
}

// Close releases idle connections held by the underlying HTTP client.
// It mirrors Store.Close so the two APIs stay swappable.
func (c *Client) Close() error {
	c.hc.CloseIdleConnections()
	return nil
}

// storeShape is the method set shared verbatim between the embedded
// store and this client; programs that want to swap the two with one
// line can depend on it (see examples/remote). Reads are one call, Read,
// plus its four conveniences; writes are one call, Write, plus two;
// metadata is one call, Info. The compile-time checks below keep the
// two APIs from drifting apart.
type storeShape interface {
	CreateArray(arrayvers.Schema) error
	Write(context.Context, []arrayvers.MultiInsert) ([][]int, error)
	Insert(string, arrayvers.Payload) (int, error)
	InsertMulti([]arrayvers.MultiInsert) (map[string][]int, error)
	Read(context.Context, arrayvers.ReadQuery) ([]arrayvers.Plane, error)
	Select(string, int) (arrayvers.Plane, error)
	SelectRegion(string, int, arrayvers.Box) (arrayvers.Plane, error)
	SelectMulti(string, []int) (*arrayvers.Dense, error)
	SelectSparseMulti(string, []int, arrayvers.Box) ([]*arrayvers.Sparse, error)
	Info(string) (arrayvers.ArrayInfo, error)
	Branch(string, int, string) error
	Merge(string, []arrayvers.VersionRef) error
	Reorganize(string, arrayvers.ReorganizeOptions) error
	Tune(string, []arrayvers.Query) (arrayvers.TuneReport, error)
	DeleteVersion(string, int) error
	Compact(string) error
	Verify(string) (arrayvers.VerifyReport, error)
	DeleteArray(string) error
	Close() error
}

var (
	_ storeShape = (*arrayvers.Store)(nil)
	_ storeShape = (*Client)(nil)
)
