// Package server implements the avstored network service layer: an HTTP
// front end that exposes the full versioned-store API of internal/core to
// remote clients, multiplexing concurrent requests onto one shared
// *core.Store (and so onto its worker pool and decoded-chunk cache).
//
// Control messages are JSON; array payloads travel as internal/wire
// binary frames so dense data never round-trips through base64. The
// server adds the production scaffolding an embedded library does not
// need: a bounded in-flight-request semaphore answering 429 beyond the
// limit, per-request timeouts, request logging, and a /metrics endpoint
// in Prometheus text format surfacing Store.Stats() plus request
// counters and a latency histogram. See DESIGN.md "Service layer" for
// the route table and wire format.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"log/slog"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"arrayvers/internal/aql"
	"arrayvers/internal/array"
	"arrayvers/internal/cliutil"
	"arrayvers/internal/core"
	"arrayvers/internal/layout"
	"arrayvers/internal/trace"
	"arrayvers/internal/wire"
)

// FrameContentType labels binary frame responses and requests.
const FrameContentType = "application/x-arrayvers-frame"

// TraceHeader carries the trace ID over the wire: a client sends it to
// have the server join its trace, and every response echoes the ID the
// request was served under (joined or freshly assigned).
const TraceHeader = "AV-Trace-Id"

// Defaults for the zero Config fields.
const (
	DefaultMaxInFlight    = 64
	DefaultRequestTimeout = 60 * time.Second
	// DefaultTraceRing is how many completed request traces
	// GET /debug/traces retains.
	DefaultTraceRing = 256
)

// Config parameterizes a Server.
type Config struct {
	// Store is the one store the server owns and serves. Required.
	Store *core.Store
	// Log receives one structured line per request (trace_id, route,
	// status, duration, bytes). Nil falls back to a text handler over
	// Logger's writer (the pre-slog shim), or slog.Default() when that
	// is nil too.
	Log *slog.Logger
	// Logger is the legacy request logger. Only its output destination
	// is used, and only when Log is nil.
	Logger *log.Logger
	// MaxInFlight bounds concurrently served requests; excess requests
	// are rejected with 429 (backpressure, not queueing). 0 means
	// DefaultMaxInFlight.
	MaxInFlight int
	// RequestTimeout bounds each request's handler; 0 means
	// DefaultRequestTimeout.
	RequestTimeout time.Duration
	// MaxFrameBytes bounds incoming wire frames; 0 means
	// wire.DefaultMaxFrameBytes.
	MaxFrameBytes int64
	// SlowQuery, when positive, logs any completed request trace slower
	// than this at warning level with its per-stage breakdown.
	SlowQuery time.Duration
}

// Server is the HTTP service over one store.
type Server struct {
	store     *core.Store
	engine    *aql.Engine
	log       *slog.Logger
	sem       chan struct{}
	timeout   time.Duration
	maxFrame  int64
	metrics   *metrics
	idem      *idemTable
	traces    *trace.Ring
	slowQuery time.Duration
	handler   http.Handler
}

// New builds a server from the config.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, errors.New("server: Config.Store is required")
	}
	if cfg.Log == nil {
		if cfg.Logger != nil {
			cfg.Log = slog.New(slog.NewTextHandler(cfg.Logger.Writer(), nil))
		} else {
			cfg.Log = slog.Default()
		}
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	if cfg.MaxFrameBytes <= 0 {
		cfg.MaxFrameBytes = wire.DefaultMaxFrameBytes
	}
	s := &Server{
		store:     cfg.Store,
		engine:    aql.NewEngine(cfg.Store),
		log:       cfg.Log,
		sem:       make(chan struct{}, cfg.MaxInFlight),
		timeout:   cfg.RequestTimeout,
		maxFrame:  cfg.MaxFrameBytes,
		metrics:   newMetrics(),
		idem:      newIdemTable(idemTableSize),
		traces:    trace.NewRing(DefaultTraceRing),
		slowQuery: cfg.SlowQuery,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/traces", s.handleTraces)
	s.route(mux, "GET /v1/health", "health", s.handleHealth)
	s.route(mux, "GET /v1/stats", "stats", s.handleStats)
	s.route(mux, "POST /v1/stats/reset", "stats-reset", s.handleStatsReset)
	s.route(mux, "GET /v1/arrays", "list", s.handleList)
	s.route(mux, "POST /v1/arrays", "create", s.handleCreate)
	s.route(mux, "DELETE /v1/arrays/{name}", "drop", s.handleDrop)
	s.route(mux, "GET /v1/arrays/{name}", "info", s.handleInfo)
	s.route(mux, "GET /v1/arrays/{name}/verify", "verify", s.handleVerify)
	s.route(mux, "POST /v1/write", "write", s.handleWrite)
	s.routeStream(mux, "GET /v1/arrays/{name}/select", "select", s.handleSelect)
	s.route(mux, "POST /v1/arrays/{name}/branch", "branch", s.handleBranch)
	s.route(mux, "POST /v1/arrays/{name}/reorganize", "reorganize", s.handleReorganize)
	s.route(mux, "POST /v1/arrays/{name}/tune", "tune", s.handleTune)
	s.route(mux, "POST /v1/arrays/{name}/delete-version", "delete-version", s.handleDeleteVersion)
	s.route(mux, "POST /v1/arrays/{name}/compact", "compact", s.handleCompact)
	s.route(mux, "POST /v1/merge", "merge", s.handleMerge)
	s.routeStream(mux, "POST /v1/aql", "aql", s.handleAQL)
	s.handler = mux
	return s, nil
}

// Handler returns the fully middleware-wrapped handler, ready for an
// http.Server (or httptest).
func (s *Server) Handler() http.Handler { return s.handler }

// route registers one instrumented route: in-flight semaphore (429 when
// full), per-request timeout, then counters, latency histogram, and the
// request log line around the handler itself. /healthz and /metrics stay
// outside this wrapper so the daemon remains observable under load.
func (s *Server) route(mux *http.ServeMux, pattern, label string, h http.HandlerFunc) {
	s.register(mux, pattern, label, http.TimeoutHandler(h, s.timeout, `{"error":"request timed out"}`))
}

// routeStream registers a frame-returning (data plane) route. These skip
// http.TimeoutHandler: it would buffer the whole frame in memory a
// second time before sending, and a timeout could not cancel the
// underlying store call anyway — the handler would keep computing while
// the client got a 503. Streaming directly bounds memory at one marshal
// copy and starts the response as soon as the first bytes exist.
func (s *Server) routeStream(mux *http.ServeMux, pattern, label string, h http.HandlerFunc) {
	s.register(mux, pattern, label, h)
}

func (s *Server) register(mux *http.ServeMux, pattern, label string, inner http.Handler) {
	mux.Handle(pattern, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.sem <- struct{}{}:
		default:
			s.metrics.rejected.Add(1)
			s.metrics.countOnly(label, http.StatusTooManyRequests)
			s.log.Warn("request rejected",
				"method", r.Method,
				"path", r.URL.Path,
				"route", label,
				"status", http.StatusTooManyRequests,
				"reason", "over in-flight limit")
			w.Header().Set("Retry-After", s.retryAfter())
			writeJSON(w, http.StatusTooManyRequests, errorBody{Error: "server overloaded: in-flight request limit reached"})
			return
		}
		defer func() { <-s.sem }()
		s.metrics.inFlight.Add(1)
		defer s.metrics.inFlight.Add(-1)

		// Join the caller's trace when the request carries an ID, else
		// start a fresh one; either way the response echoes the ID so
		// the client can fetch the breakdown from /debug/traces. The
		// trace rides the request context through the store pipelines.
		tr := trace.Join(r.Header.Get(TraceHeader), label)
		w.Header().Set(TraceHeader, tr.ID())
		r = r.WithContext(trace.NewContext(r.Context(), tr))

		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		inner.ServeHTTP(sw, r)
		dur := time.Since(start)
		s.metrics.observe(label, sw.code, dur.Seconds())
		sum := tr.Finish()
		s.traces.Add(sum)
		s.log.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"route", label,
			"status", sw.code,
			"duration", dur.Round(time.Microsecond),
			"bytes", sw.bytes,
			"trace_id", sum.ID)
		if s.slowQuery > 0 && dur > s.slowQuery {
			s.log.Warn("slow query",
				"method", r.Method,
				"path", r.URL.Path,
				"route", label,
				"status", sw.code,
				"duration", dur.Round(time.Microsecond),
				"budget", s.slowQuery,
				"trace_id", sum.ID,
				"stages", formatStages(sum))
		}
	}))
}

// formatStages renders a trace's per-stage breakdown as one compact
// string for the slow-query log line.
func formatStages(sum trace.Summary) string {
	if len(sum.Stages) == 0 {
		return "(none)"
	}
	var b strings.Builder
	for i, st := range sum.Stages {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%s", st.Stage, time.Duration(st.Nanos).Round(time.Microsecond))
		if st.Bytes > 0 {
			fmt.Fprintf(&b, "/%dB", st.Bytes)
		}
	}
	return b.String()
}

// retryAfter derives the 429 Retry-After hint from the saturated
// in-flight pool: a bigger pool means more queued work will drain
// before a slot frees, so the hint scales with its size, and a second
// of jitter keeps the rejected cohort from re-arriving in lockstep and
// tripping the limit again all at once.
func (s *Server) retryAfter() string {
	secs := 1 + len(s.sem)/32 + rand.Intn(2)
	return strconv.Itoa(secs)
}

// degradedRetryAfter derives the degraded-mode (503) Retry-After hint
// from the store's heal-prober cadence (core.HealInterval): the soonest
// the store can plausibly be writable again is one heal interval away,
// and a second of jitter spreads the retrying cohort out — mirroring
// the 429 path's derived hint.
func (s *Server) degradedRetryAfter() string {
	return strconv.Itoa(healRetrySecs + rand.Intn(2))
}

// healRetrySecs is core.HealInterval rounded up to whole seconds.
const healRetrySecs = int((core.HealInterval + time.Second - 1) / time.Second)

// statusWriter records the first status code written and the response
// body size.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
	wrote bool
}

func (sw *statusWriter) WriteHeader(code int) {
	if !sw.wrote {
		sw.code = code
		sw.wrote = true
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	sw.wrote = true
	n, err := sw.ResponseWriter.Write(b)
	sw.bytes += int64(n)
	return n, err
}

// --- response plumbing ---

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeErr maps a store/codec error to a status code and JSON body.
// ErrClosed, ErrFrameTooLarge and *http.MaxBytesError (413) are typed;
// the not-found/exists cases match the stable "core: ..."-prefixed
// message forms (anchored so a user-supplied name or path embedded in
// an unrelated error cannot flip the status).
func (s *Server) writeErr(w http.ResponseWriter, err error) {
	msg := err.Error()
	code := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	switch {
	case errors.Is(err, wire.ErrFrameTooLarge), errors.As(err, &tooLarge):
		code = http.StatusRequestEntityTooLarge
	case errors.Is(err, core.ErrDegraded):
		// degraded mode is transient by design (the heal prober is
		// working on it): tell well-behaved clients when to retry
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", s.degradedRetryAfter())
	case errors.Is(err, core.ErrClosed):
		code = http.StatusServiceUnavailable
	case strings.HasPrefix(msg, "core: array") && strings.HasSuffix(msg, "already exists"):
		code = http.StatusConflict
	case strings.HasPrefix(msg, "core: no array") ||
		(strings.HasPrefix(msg, "core: array") && strings.Contains(msg, "has no version")):
		code = http.StatusNotFound
	}
	writeJSON(w, code, errorBody{Error: msg})
}

// maxJSONBody bounds every JSON control body. 4 MiB holds a workload of
// tens of thousands of queries (or any schema, statement or version
// list) yet keeps an oversized request from being allocated in full
// before it is rejected; the array payloads of /v1/write are frames
// with their own bound.
const maxJSONBody = 4 << 20

// decodeJSONBody decodes one JSON control body of at most maxJSONBody
// bytes. A body declared larger is refused before any of it is read.
func decodeJSONBody(w http.ResponseWriter, r *http.Request, v any) error {
	if r.ContentLength > maxJSONBody {
		return &http.MaxBytesError{Limit: maxJSONBody}
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJSONBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// --- query-parameter parsing ---

func versionsParam(r *http.Request) ([]int, error) {
	raw := r.URL.Query().Get("versions")
	if raw == "" {
		return nil, errors.New("missing ?versions parameter")
	}
	parts := strings.Split(raw, ",")
	ids := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad ?versions element %q", p)
		}
		ids[i] = v
	}
	return ids, nil
}

// boxParam parses the optional ?box=lo,lo:hi,hi parameter; an absent
// box is the zero Box, which selects the whole array.
func boxParam(r *http.Request) (array.Box, error) {
	raw := r.URL.Query().Get("box")
	if raw == "" {
		return array.Box{}, nil
	}
	return cliutil.ParseBox(raw)
}

// --- handlers ---

// handleHealthz is the liveness probe: it answers 200 as long as the
// process serves HTTP at all, even in degraded read-only mode — a
// degraded store is alive and still serves reads, and restarting it
// (the usual reaction to a failed liveness probe) would not fix a sick
// disk.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is the readiness probe: it fails while any array (or
// the whole store) is degraded, so a load balancer stops routing
// writes at a node that would 503 them, and resumes once the heal
// prober has flipped the store back to writable. Stays outside the
// in-flight wrapper with /healthz so probes keep answering under load.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	h := s.store.Health()
	if h.Degraded {
		w.Header().Set("Retry-After", s.degradedRetryAfter())
		writeJSON(w, http.StatusServiceUnavailable, h)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// handleHealth reports the full degraded-mode state (which arrays,
// why, since when) for operators; readyz is the boolean form of it.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.store.Health())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.write(w, s.store)
}

// handleTraces serves the ring of recently completed request traces.
// With ?id=<trace-id> it returns that one trace (404 when it has been
// evicted or never existed); otherwise the whole ring, newest first,
// optionally capped by ?n=. Registered outside the in-flight wrapper
// so the profiling surface stays reachable under load, and so reading
// traces does not itself generate traces.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if id := r.URL.Query().Get("id"); id != "" {
		sum, ok := s.traces.Find(id)
		if !ok {
			writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("server: no trace %q (evicted or unknown)", id)})
			return
		}
		writeJSON(w, http.StatusOK, sum)
		return
	}
	traces := s.traces.Snapshot()
	if nStr := r.URL.Query().Get("n"); nStr != "" {
		n, err := strconv.Atoi(nStr)
		if err != nil || n < 0 {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "server: n must be a non-negative integer"})
			return
		}
		if n < len(traces) {
			traces = traces[:n]
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"traces": traces})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.store.Stats())
}

func (s *Server) handleStatsReset(w http.ResponseWriter, r *http.Request) {
	s.store.ResetStats()
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	names := s.store.ListArrays()
	if names == nil {
		names = []string{}
	}
	writeJSON(w, http.StatusOK, names)
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var schema array.Schema
	if err := decodeJSONBody(w, r, &schema); err != nil {
		s.writeErr(w, err)
		return
	}
	if err := s.store.CreateArray(schema); err != nil {
		s.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"name": schema.Name})
}

func (s *Server) handleDrop(w http.ResponseWriter, r *http.Request) {
	if err := s.store.DeleteArray(r.PathValue("name")); err != nil {
		s.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "dropped"})
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	info, err := s.store.Info(r.PathValue("name"))
	if err != nil {
		s.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	rep, err := s.store.Verify(r.PathValue("name"))
	if err != nil {
		s.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// idemKey scopes the client's Idempotency-Key header by the write's
// part table (each array and its payload count): reusing one key for a
// write to different arrays, or of a different shape, can never replay
// another commit's version ids in place of performing the write. An
// absent header opts out (empty key).
func idemKey(r *http.Request, puts []core.MultiInsert) string {
	h := r.Header.Get("Idempotency-Key")
	if h == "" {
		return ""
	}
	var k strings.Builder
	for _, p := range puts {
		fmt.Fprintf(&k, "%s/%d\x00", p.Array, len(p.Payloads))
	}
	return k.String() + h
}

// handleWrite commits one write, the one insert route: the body is a
// multi-batch frame (one header frame naming the member arrays and
// their payload counts, then every payload frame back to back), and the
// whole write lands under the manifest log's single commit point —
// either every array shows its new versions or none does. The reply
// lists each put's new version ids, in put order. The whole body shares
// the max-frame byte budget (and wire caps the frame count). When the
// request carries an Idempotency-Key header, retries of the same key
// replay the ids committed by the first attempt instead of writing
// twice — the answer to "the write succeeded but the ack was lost"; the
// replayed response is marked with Idempotency-Replayed: true. The idem
// table stores one flat id list, split by the part table on the way out.
func (s *Server) handleWrite(w http.ResponseWriter, r *http.Request) {
	limit := s.maxFrame + int64(wire.MaxBatchPayloads)*16
	puts, err := wire.ReadMultiBatch(http.MaxBytesReader(w, r.Body, limit), s.maxFrame)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	flat, err, replayed := s.idem.do(r.Context(), idemKey(r, puts), func() ([]int, error) {
		ids, err := s.store.Write(r.Context(), puts)
		var flat []int
		for _, put := range ids {
			flat = append(flat, put...)
		}
		return flat, err
	})
	if err != nil {
		s.writeErr(w, err)
		return
	}
	if replayed {
		w.Header().Set("Idempotency-Replayed", "true")
	}
	ids := make([][]int, len(puts))
	for i, p := range puts {
		ids[i], flat = flat[:len(p.Payloads)], flat[len(p.Payloads):]
	}
	writeJSON(w, http.StatusCreated, map[string][][]int{"ids": ids})
}

// handleSelect serves the one select route: ?versions=a,b,… with an
// optional ?attr= and ?box=. The reply is one plane frame per listed
// version, back to back in request order; a dense plane goes out as the
// chunks the store resolved (wire.WriteChunked), never assembled.
// The request context cancels on client disconnect, so an abandoned
// select stops scheduling chunk decodes instead of running to the end.
func (s *Server) handleSelect(w http.ResponseWriter, r *http.Request) {
	ids, err := versionsParam(r)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	box, err := boxParam(r)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	q := core.ReadQuery{Array: r.PathValue("name"), IDs: ids, Attr: r.URL.Query().Get("attr"), Box: box}
	if len(ids) > 1 {
		if err := s.checkReplySize(q); err != nil {
			s.writeErr(w, err)
			return
		}
	}
	planes, err := s.store.ReadChunked(r.Context(), q)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", FrameContentType)
	// nothing is assembled, so a dense reply's length is known before its
	// first byte: announced, it spares both ends the chunked encoding
	if n, ok := wire.ChunkedLen(planes); ok {
		w.Header().Set("Content-Length", strconv.FormatInt(n, 10))
	}
	for _, pl := range planes {
		if err := s.writePlane(w, pl); err != nil {
			return // the client went away mid-reply
		}
	}
}

// writePlane frames one reply plane: a sparse one whole, a dense one
// through the one dense reply writer, wire.WriteChunked, whose directly
// written bytes the zero-copy counters record.
func (s *Server) writePlane(w io.Writer, pl core.ChunkedPlane) error {
	if pl.Sparse != nil {
		return wire.WritePlane(w, core.Plane{Sparse: pl.Sparse})
	}
	n, err := wire.WriteChunked(w, pl)
	if err == nil {
		s.metrics.addZeroCopy(n)
	}
	return err
}

// checkReplySize bounds a multi-version select of a dense array before
// any chunk is read: its reply holds len(ids) planes of box ∩ array
// cells each, and one beyond MaxFrameBytes is refused (413) rather than
// built in memory. A repeated id costs a full plane each time, so the
// URL length alone does not bound the work. Errors that Read reports
// better (no such attribute, a malformed box) pass through unchecked.
func (s *Server) checkReplySize(q core.ReadQuery) error {
	info, err := s.store.Info(q.Array)
	if err != nil || info.SparseRep {
		return err
	}
	sch := info.Schema
	ai := 0
	if q.Attr != "" {
		if ai = sch.AttrIndex(q.Attr); ai < 0 {
			return nil
		}
	}
	box := array.BoxOf(sch.Shape())
	if q.Box.NDim() == len(sch.Dims) {
		box = box.Intersect(q.Box)
	}
	need := float64(len(q.IDs)) * float64(box.NumCells()) * float64(sch.Attrs[ai].Type.Size())
	if need > float64(s.maxFrame) {
		return fmt.Errorf("%w: %d versions of %v need %.0f bytes > %d", wire.ErrFrameTooLarge, len(q.IDs), box, need, s.maxFrame)
	}
	return nil
}

func (s *Server) handleBranch(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Version int    `json:"version"`
		NewName string `json:"newName"`
	}
	if err := decodeJSONBody(w, r, &req); err != nil {
		s.writeErr(w, err)
		return
	}
	if err := s.store.Branch(r.PathValue("name"), req.Version, req.NewName); err != nil {
		s.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"name": req.NewName})
}

func (s *Server) handleMerge(w http.ResponseWriter, r *http.Request) {
	var req struct {
		NewName string            `json:"newName"`
		Parents []core.VersionRef `json:"parents"`
	}
	if err := decodeJSONBody(w, r, &req); err != nil {
		s.writeErr(w, err)
		return
	}
	if err := s.store.Merge(req.NewName, req.Parents); err != nil {
		s.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"name": req.NewName})
}

// reorganizeRequest is the JSON form of core.ReorganizeOptions, with the
// policy by name (as printed by LayoutPolicy.String).
type reorganizeRequest struct {
	Policy       string         `json:"policy"`
	MatrixSample int            `json:"matrixSample,omitempty"`
	BatchK       int            `json:"batchK,omitempty"`
	Workload     []layout.Query `json:"workload,omitempty"`
}

func (s *Server) handleReorganize(w http.ResponseWriter, r *http.Request) {
	var req reorganizeRequest
	if err := decodeJSONBody(w, r, &req); err != nil {
		s.writeErr(w, err)
		return
	}
	policy, err := cliutil.ParsePolicy(req.Policy)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	opts := core.ReorganizeOptions{
		Policy:       policy,
		MatrixSample: req.MatrixSample,
		BatchK:       req.BatchK,
		Workload:     req.Workload,
	}
	if err := s.store.Reorganize(r.PathValue("name"), opts); err != nil {
		s.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "reorganized"})
}

// handleTune runs one Tune pass over the array for the workload in the
// body ({"workload": [...]}): it prices the current layout against the
// workload-aware one, reorganizes when the savings reach the threshold,
// and returns the TuneReport either way.
func (s *Server) handleTune(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Workload []layout.Query `json:"workload"`
	}
	if err := decodeJSONBody(w, r, &req); err != nil {
		s.writeErr(w, err)
		return
	}
	rep, err := s.store.Tune(r.PathValue("name"), req.Workload)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func (s *Server) handleDeleteVersion(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Version int  `json:"version"`
		Compact bool `json:"compact,omitempty"`
	}
	if err := decodeJSONBody(w, r, &req); err != nil {
		s.writeErr(w, err)
		return
	}
	name := r.PathValue("name")
	if err := s.store.DeleteVersion(name, req.Version); err != nil {
		s.writeErr(w, err)
		return
	}
	// the delete is durable at this point; a compact failure must not
	// read as a failed delete, so it is reported alongside success
	body := map[string]string{"status": "deleted"}
	if req.Compact {
		if err := s.store.Compact(name); err != nil {
			body["compactError"] = err.Error()
		}
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	if err := s.store.Compact(r.PathValue("name")); err != nil {
		s.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "compacted"})
}

// aqlScalarResult is the JSON body of an AQL statement whose result
// carries no array payload; array results are framed instead.
type aqlScalarResult struct {
	Message string   `json:"message,omitempty"`
	Names   []string `json:"names,omitempty"`
}

func (s *Server) handleAQL(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Stmt string `json:"stmt"`
	}
	if err := decodeJSONBody(w, r, &req); err != nil {
		s.writeErr(w, err)
		return
	}
	res, err := s.engine.Execute(req.Stmt)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	switch {
	case res.Dense != nil || res.Sparse != nil:
		pl := core.ChunkedPlane{Sparse: res.Sparse}
		if d := res.Dense; d != nil {
			// the result is one plane, so it goes out as one tile
			pl = core.ChunkedPlane{Box: array.BoxOf(d.Shape()), Stride: d.Shape(), Chunks: []*array.Dense{d}}
		}
		w.Header().Set("Content-Type", FrameContentType)
		_ = s.writePlane(w, pl) // an error means the client went away
	default:
		names := res.Names
		if names == nil && res.Message == "" {
			names = []string{}
		}
		writeJSON(w, http.StatusOK, aqlScalarResult{Message: res.Message, Names: names})
	}
}
