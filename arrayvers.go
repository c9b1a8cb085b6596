// Package arrayvers is a versioned storage manager for scientific array
// data, a from-scratch Go reproduction of "Efficient Versioning for
// Scientific Array Databases" (Seering, Cudré-Mauroux, Madden,
// Stonebraker — ICDE 2012), the versioning prototype built for SciDB.
//
// The library exposes a "no-overwrite" storage model: each update to a
// named array creates a new version, and versions form trees (via
// Branch) or DAGs (via Merge). Versions are stored chunk-by-chunk,
// delta-encoded against one another to minimize disk space or I/O cost,
// and optionally compressed. The layout optimizer decides which versions
// to materialize and which to delta — including the paper's
// spanning-tree Algorithm 1, spanning-forest Algorithm 2, an exact
// optimal layout, and workload-aware layouts.
//
// Quick start:
//
//	store, err := arrayvers.Open(dir, arrayvers.DefaultOptions())
//	...
//	err = store.CreateArray(arrayvers.Schema{
//		Name:  "Weather",
//		Dims:  []arrayvers.Dimension{{Name: "X", Lo: 0, Hi: 255}, {Name: "Y", Lo: 0, Hi: 255}},
//		Attrs: []arrayvers.Attribute{{Name: "Temp", Type: arrayvers.Float32}},
//	})
//	id, err := store.Insert("Weather", arrayvers.DensePayload(grid))
//	plane, err := store.Select("Weather", id)
//
// The same API is served over the network by the cmd/avstored daemon;
// the client package mirrors Store method-for-method, so switching a
// program from embedded to remote is a one-line change:
//
//	store := client.New("http://localhost:7421")
//
// See the examples/ directory for runnable programs (examples/remote
// runs one program body against both an embedded store and a daemon)
// and DESIGN.md for the mapping from the paper's sections to packages
// plus the service layer's wire format.
package arrayvers

import (
	"context"

	"arrayvers/internal/aql"
	"arrayvers/internal/array"
	"arrayvers/internal/compress"
	"arrayvers/internal/core"
	"arrayvers/internal/delta"
	"arrayvers/internal/layout"
	"arrayvers/internal/trace"
)

// Store is the versioned storage manager (paper §II). It supports the
// five basic operations — create array, delete array, create version,
// delete version, query version — plus Branch, Merge, metadata queries,
// and background reorganization. Querying versions is one call, Read
// (one or more versions of one attribute, optionally a region), with
// Select, SelectRegion, SelectMulti and SelectSparseMulti as shorthands.
// Metadata is one call too: Info returns an array's schema, sizes,
// versions and provenance from one snapshot (ArrayInfo.At is time
// travel).
//
// A Store is safe for concurrent use: selects snapshot metadata and
// decode chunks without serializing on the store lock, fan per-chunk
// work out on a bounded worker pool (Options.Parallelism), and share a
// store-wide LRU of reconstructed chunks (Options.CacheBytes) so
// repeated and overlapping version reads skip the delta-chain walk.
// Writing versions is one call too, Write (any payloads into one or
// several arrays, atomically, as one commit record), with Insert and
// InsertMulti as shorthands. Writes to different arrays encode and fsync
// in parallel under per-array write latches; writes to one array run one
// at a time, so each deltas against the version before it. See
// DESIGN.md's "Concurrency & caching" and "Write path" sections.
type Store = core.Store

// Options configures a Store (chunk size, compression codec, delta
// method, automatic delta-ing, chain co-location, hot-path parallelism,
// and the decoded-chunk cache budget).
type Options = core.Options

// DefaultCacheBytes is a reasonable Options.CacheBytes budget for
// interactive workloads. The cache is off in DefaultOptions so that I/O
// accounting matches the paper's experiments; opt in with:
//
//	opts := arrayvers.DefaultOptions()
//	opts.CacheBytes = arrayvers.DefaultCacheBytes
const DefaultCacheBytes = core.DefaultCacheBytes

// Open creates or reopens a store rooted at a directory. A directory
// written in any other on-disk format fails with ErrFormat.
func Open(dir string, opts Options) (*Store, error) { return core.Open(dir, opts) }

// ErrFormat is returned (wrapped) by Open for a directory in an on-disk
// format this build does not serve; the message names the format found
// and the one expected. Open writes nothing to such a directory.
var ErrFormat = core.ErrFormat

// DefaultOptions returns the paper's defaults (10 MB chunks, hybrid
// deltas, co-located chains, automatic delta-ing).
func DefaultOptions() Options { return core.DefaultOptions() }

// Schema, dimensions, and attributes describe named arrays (§II-A).
type (
	Schema    = array.Schema
	Dimension = array.Dimension
	Attribute = array.Attribute
)

// DataType identifies a fixed-size cell type.
type DataType = array.DataType

// Cell types.
const (
	Int8    = array.Int8
	Int16   = array.Int16
	Int32   = array.Int32
	Int64   = array.Int64
	UInt8   = array.UInt8
	UInt16  = array.UInt16
	UInt32  = array.UInt32
	Float32 = array.Float32
	Float64 = array.Float64
)

// Dense is an N-dimensional row-major array; Sparse is a coordinate-list
// array with a default fill value; Box is a hyper-rectangle query region.
type (
	Dense  = array.Dense
	Sparse = array.Sparse
	Box    = array.Box
)

// NewDense allocates a zero-filled dense array.
func NewDense(dtype DataType, shape []int64) (*Dense, error) { return array.NewDense(dtype, shape) }

// NewSparse allocates an empty sparse array with the given fill pattern.
func NewSparse(dtype DataType, shape []int64, fill int64) (*Sparse, error) {
	return array.NewSparse(dtype, shape, fill)
}

// NewBox builds a query region from inclusive-lo / exclusive-hi corners.
func NewBox(lo, hi []int64) Box { return array.NewBox(lo, hi) }

// Stack combines same-shaped N-dimensional arrays into one
// (N+1)-dimensional array.
func Stack(arrays []*Dense) (*Dense, error) { return array.Stack(arrays) }

// ReadQuery names what Store.Read returns: the listed versions of one
// array's attribute (empty Attr means the first), restricted to Box (a
// zero Box means the whole array).
type ReadQuery = core.ReadQuery

// StackPlanes stacks the planes of a multi-version Read into one
// (N+1)-dimensional dense array, densifying sparse planes; it passes a
// Read error through, so it can wrap the call directly.
func StackPlanes(planes []Plane, err error) (*Dense, error) { return core.StackPlanes(planes, err) }

// SparsePlanes unwraps the planes of a multi-version Read of the sparse
// array name; a dense array is an error. It passes a Read error through.
func SparsePlanes(name string, planes []Plane, err error) ([]*Sparse, error) {
	return core.SparsePlanes(name, planes, err)
}

// Payload forms for Insert (§II-A): dense, sparse, and delta-list.
type (
	Payload    = core.Payload
	Plane      = core.Plane
	CellUpdate = core.CellUpdate
)

// MultiInsert is one put of a Store.Write: payloads for one array. The
// puts of one Write commit atomically under the store-wide manifest
// log's single commit point.
type MultiInsert = core.MultiInsert

// DensePayload wraps a single-attribute dense version content.
func DensePayload(d *Dense) Payload { return core.DensePayload(d) }

// SparsePayload wraps a single-attribute sparse version content.
func SparsePayload(sp *Sparse) Payload { return core.SparsePayload(sp) }

// DeltaListPayload builds the delta-list insert form: the new version
// equals the base version except at the listed cell updates.
func DeltaListPayload(base int, updates []CellUpdate) Payload {
	return core.DeltaListPayload(base, updates)
}

// Version metadata types (§II-C).
type (
	VersionInfo = core.VersionInfo
	VersionRef  = core.VersionRef
	ArrayInfo   = core.ArrayInfo
	BranchRef   = core.BranchRef
	IOStats     = core.IOStats
	// RecoveryStats is what Open-time crash recovery repaired (populated
	// when Options.Durability is on; see Store.Recovery).
	RecoveryStats = core.RecoveryStats
)

// VerifyReport is the result of Store.Verify, an offline integrity check
// of one array (readability of every version, delta-chain sanity, and
// space reclaimable by Compact).
type VerifyReport = core.VerifyReport

// ManifestReport is the result of Store.VerifyManifest, a deep
// integrity check of the store-wide manifest commit log: CURRENT, the
// snapshot, every log record's checksum and sequence continuity, and
// the orphaned-record sweep. avstore fsck runs it before the per-array
// checks.
type ManifestReport = core.ManifestReport

// Fault tolerance: commit-protocol failures whose on-disk effect is
// uncertain flip the affected array (or, on disk-full, the whole store)
// into degraded read-only mode rather than crashing or guessing.
// Reads keep working; writes fail fast with ErrDegraded until
// Store.Heal — or the background heal prober, which retries once a
// second — re-establishes the disk state and verifies the array. See
// DESIGN.md "Resilience & degraded modes".
type (
	Health      = core.Health
	ArrayHealth = core.ArrayHealth
	HealReport  = core.HealReport
)

// ErrDegraded is returned (wrapped) by writes rejected while an array
// or the store is in degraded read-only mode; match with errors.Is.
var ErrDegraded = core.ErrDegraded

// ErrDeltaCycle is returned (wrapped) by a select whose delta chain
// loops instead of reaching a materialized version; match with
// errors.Is.
var ErrDeltaCycle = core.ErrDeltaCycle

// Reorganization (§IV): layout policies and options.
type (
	ReorganizeOptions = core.ReorganizeOptions
	LayoutPolicy      = core.LayoutPolicy
	// Layout assigns each version a materialization or a delta parent.
	Layout = layout.Layout
)

// TuneReport is the result of Store.Tune, which prices an array's
// layout on disk against PolicyWorkloadAware for a workload the caller
// supplies (§IV-D) and reorganizes only when the projected I/O savings
// reach 10%. See DESIGN.md "Workload-aware reorganization (§IV-D)".
type TuneReport = core.TuneReport

// Layout policies.
const (
	PolicyOptimal       = core.PolicyOptimal
	PolicyAlgorithm1    = core.PolicyAlgorithm1
	PolicyAlgorithm2    = core.PolicyAlgorithm2
	PolicyLinearChain   = core.PolicyLinearChain
	PolicyHeadBiased    = core.PolicyHeadBiased
	PolicyWorkloadAware = core.PolicyWorkloadAware
)

// Query is one weighted workload element for workload-aware layouts
// (§IV-D).
type Query = layout.Query

// Snapshot builds a single-version query; Range builds a contiguous
// version-range query.
func Snapshot(v int, w float64) Query   { return layout.Snapshot(v, w) }
func Range(lo, hi int, w float64) Query { return layout.Range(lo, hi, w) }

// Compression codecs (§III-B.2).
type Codec = compress.Codec

// Codecs.
const (
	CodecNone     = compress.None
	CodecLZ       = compress.LZ
	CodecRLE      = compress.RLE
	CodecNullSupp = compress.NullSupp
	CodecPNG      = compress.PNG
	CodecWavelet  = compress.Wavelet
)

// Delta methods (§III-B.3).
type DeltaMethod = delta.Method

// Delta methods.
const (
	DeltaDense      = delta.Dense
	DeltaSparse     = delta.Sparse
	DeltaHybrid     = delta.Hybrid
	DeltaBlockMatch = delta.BlockMatch
	DeltaBSDiff     = delta.BSDiff
)

// Engine executes AQL statements (Appendix A) against a store.
type Engine = aql.Engine

// NewEngine wraps a store in an AQL executor.
func NewEngine(store *Store) *Engine { return aql.NewEngine(store) }

// AQLResult is the outcome of one AQL statement.
type AQLResult = aql.Result

// --- query tracing and profiling ---

// Trace is a per-request span recorder: carried through a context, it
// collects stage-level timings and byte counts as a query moves through
// the select or commit pipeline (see DESIGN.md "Observability").
type Trace = trace.Trace

// TraceSummary is one completed trace: total duration plus the ordered
// per-stage breakdown. The server's /debug/traces endpoint serves these.
type TraceSummary = trace.Summary

// TraceStage is one pipeline stage's aggregate within a TraceSummary.
type TraceStage = trace.StageSummary

// NewTraceID mints a fresh 128-bit hex trace ID, the same form the
// server assigns to untraced requests.
func NewTraceID() string { return trace.NewID() }

// NewTrace starts recording a trace under the given name.
func NewTrace(name string) *Trace { return trace.New(name) }

// JoinTrace starts recording under an existing trace ID (empty id mints
// a fresh one), so distributed parties agree on the identifier.
func JoinTrace(id, name string) *Trace { return trace.Join(id, name) }

// TraceContext attaches a trace to a context; every store call made
// with that context (Read, Write) records its pipeline stages into the
// trace.
func TraceContext(ctx context.Context, t *Trace) context.Context {
	return trace.NewContext(ctx, t)
}

// TraceFromContext returns the context's trace, or nil.
func TraceFromContext(ctx context.Context) *Trace { return trace.FromContext(ctx) }
