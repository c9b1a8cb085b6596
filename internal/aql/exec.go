package aql

import (
	"context"
	"fmt"
	"os"
	"strings"

	"arrayvers/internal/array"
	"arrayvers/internal/core"
)

// Engine executes AQL statements against a versioned store.
type Engine struct {
	store *core.Store
}

// NewEngine wraps a store.
func NewEngine(store *core.Store) *Engine { return &Engine{store: store} }

// Result is the outcome of one statement.
type Result struct {
	// Message is set for statements without array output (CREATE, LOAD,
	// BRANCH, DROP).
	Message string
	// Names is set for VERSIONS and LIST.
	Names []string
	// Dense / Sparse carry array output for SELECT.
	Dense  *array.Dense
	Sparse *array.Sparse
}

// Execute parses and runs one statement.
func (e *Engine) Execute(src string) (Result, error) {
	return e.ExecuteCtx(context.Background(), src)
}

// ExecuteCtx parses and runs one statement under a context, so a trace
// attached to the context records the query's pipeline stages.
func (e *Engine) ExecuteCtx(ctx context.Context, src string) (Result, error) {
	st, err := Parse(src)
	if err != nil {
		return Result{}, err
	}
	return e.RunCtx(ctx, st)
}

// Run executes a parsed statement.
func (e *Engine) Run(st Stmt) (Result, error) {
	return e.RunCtx(context.Background(), st)
}

// RunCtx executes a parsed statement under a context.
func (e *Engine) RunCtx(ctx context.Context, st Stmt) (Result, error) {
	switch s := st.(type) {
	case CreateStmt:
		if err := e.store.CreateArray(s.Schema); err != nil {
			return Result{}, err
		}
		return Result{Message: fmt.Sprintf("created array %s", s.Schema.Name)}, nil
	case LoadStmt:
		return e.load(s)
	case SelectStmt:
		return e.selectStmt(ctx, s)
	case VersionsStmt:
		info, err := e.store.Info(s.Array)
		if err != nil {
			return Result{}, err
		}
		names := []string{} // non-nil so an empty history renders as []
		for _, vi := range info.Versions {
			names = append(names, fmt.Sprintf("%s@%d", s.Array, vi.ID))
		}
		return Result{Names: names}, nil
	case BranchStmt:
		if err := e.store.Branch(s.Array, s.Version, s.NewName); err != nil {
			return Result{}, err
		}
		return Result{Message: fmt.Sprintf("branched %s@%d as %s", s.Array, s.Version, s.NewName)}, nil
	case DropStmt:
		if err := e.store.DeleteArray(s.Array); err != nil {
			return Result{}, err
		}
		return Result{Message: fmt.Sprintf("dropped array %s", s.Array)}, nil
	case ListStmt:
		return Result{Names: e.store.ListArrays()}, nil
	case MergeStmt:
		refs := make([]core.VersionRef, len(s.Parents))
		for i, pr := range s.Parents {
			refs[i] = core.VersionRef{Array: pr.Array, Version: pr.Version}
		}
		if err := e.store.Merge(s.NewName, refs); err != nil {
			return Result{}, err
		}
		return Result{Message: fmt.Sprintf("merged %d versions into %s", len(refs), s.NewName)}, nil
	case DeleteVersionStmt:
		if err := e.store.DeleteVersion(s.Array, s.Version); err != nil {
			return Result{}, err
		}
		return Result{Message: fmt.Sprintf("deleted %s@%d", s.Array, s.Version)}, nil
	case InfoStmt:
		info, err := e.store.Info(s.Array)
		if err != nil {
			return Result{}, err
		}
		return Result{Message: fmt.Sprintf("array %s: %d versions, %d bytes on disk, %d chunks, sparse=%v",
			s.Array, info.NumVersions, info.DiskBytes, info.NumChunks, info.SparseRep)}, nil
	default:
		return Result{}, fmt.Errorf("aql: unhandled statement %T", st)
	}
}

// load reads an array blob file (array.Marshal format, as produced by
// the avgen tool) and inserts it as a new version.
func (e *Engine) load(s LoadStmt) (Result, error) {
	raw, err := os.ReadFile(s.File)
	if err != nil {
		return Result{}, fmt.Errorf("aql: load: %w", err)
	}
	v, err := array.Unmarshal(raw)
	if err != nil {
		return Result{}, fmt.Errorf("aql: load: %w", err)
	}
	var payload core.Payload
	switch a := v.(type) {
	case *array.Dense:
		payload = core.DensePayload(a)
	case *array.Sparse:
		payload = core.SparsePayload(a)
	}
	id, err := e.store.Insert(s.Array, payload)
	if err != nil {
		return Result{}, err
	}
	return Result{Message: fmt.Sprintf("loaded %s@%d", s.Array, id)}, nil
}

func (e *Engine) selectStmt(ctx context.Context, s SelectStmt) (Result, error) {
	info, err := e.store.Info(s.Array)
	if err != nil {
		return Result{}, err
	}
	schema := info.Schema
	ndim := len(schema.Dims)
	// resolve the spatial box (all Ranges entries except, for @*, the
	// final time range)
	spatial := array.BoxOf(schema.Shape())
	var timeRange *[2]int64
	if s.Ranges != nil {
		want := ndim
		if s.Version.All {
			want = ndim + 1
		}
		if len(s.Ranges) != want {
			return Result{}, fmt.Errorf("aql: SUBSAMPLE needs %d ranges for %s, got %d", want, s.Array, len(s.Ranges))
		}
		for i := 0; i < ndim; i++ {
			spatial.Lo[i] = s.Ranges[i][0]
			spatial.Hi[i] = s.Ranges[i][1] + 1 // AQL ranges are inclusive
		}
		if s.Version.All {
			tr := s.Ranges[ndim]
			timeRange = &tr
		}
	}
	switch {
	case s.Version.All:
		var ids []int
		for _, vi := range info.Versions {
			ids = append(ids, vi.ID)
		}
		if timeRange != nil {
			// the time axis indexes the stacked dimension (0-based
			// positions in the version list, per the appendix example)
			lo, hi := timeRange[0], timeRange[1]
			if lo < 0 || hi >= int64(len(ids)) || lo > hi {
				return Result{}, fmt.Errorf("aql: time range %d:%d out of bounds (0:%d)", lo, hi, len(ids)-1)
			}
			ids = ids[lo : hi+1]
		}
		stacked, err := core.StackPlanes(e.store.Read(ctx, core.ReadQuery{Array: s.Array, IDs: ids, Box: spatial}))
		if err != nil {
			return Result{}, err
		}
		return Result{Dense: stacked}, nil
	case s.Version.Date != nil:
		id, err := info.At(*s.Version.Date)
		if err != nil {
			return Result{}, err
		}
		return e.selectOne(ctx, s.Array, id, spatial)
	default:
		return e.selectOne(ctx, s.Array, s.Version.ID, spatial)
	}
}

func (e *Engine) selectOne(ctx context.Context, name string, id int, box array.Box) (Result, error) {
	planes, err := e.store.Read(ctx, core.ReadQuery{Array: name, IDs: []int{id}, Box: box})
	if err != nil {
		return Result{}, err
	}
	return Result{Dense: planes[0].Dense, Sparse: planes[0].Sparse}, nil
}

// String renders a result in the appendix's nested-bracket style, e.g.
//
//	[
//	[(1),(2),(3)]
//	[(4),(5),(6)]
//	]
func (r Result) String() string {
	switch {
	case r.Dense != nil:
		var b strings.Builder
		renderDense(&b, r.Dense, make([]int64, 0, r.Dense.NDim()))
		return b.String()
	case r.Sparse != nil:
		var b strings.Builder
		fmt.Fprintf(&b, "sparse %v, %d non-default cells\n", r.Sparse.Shape(), r.Sparse.NNZ())
		count := 0
		r.Sparse.Pairs(func(flat, bits int64) {
			if count < 20 {
				fmt.Fprintf(&b, "(%d)=(%d)\n", flat, bits)
			}
			count++
		})
		if count > 20 {
			fmt.Fprintf(&b, "... %d more\n", count-20)
		}
		return b.String()
	case r.Names != nil:
		parts := make([]string, len(r.Names))
		for i, n := range r.Names {
			parts[i] = fmt.Sprintf("('%s')", n)
		}
		return "[" + strings.Join(parts, ",") + "]"
	default:
		return r.Message
	}
}

// renderDense prints the array with one bracket level per dimension.
func renderDense(b *strings.Builder, d *array.Dense, prefix []int64) {
	shape := d.Shape()
	dim := len(prefix)
	if dim == len(shape)-1 {
		// innermost: one row of cells
		b.WriteString("[")
		for i := int64(0); i < shape[dim]; i++ {
			if i > 0 {
				b.WriteString(",")
			}
			coords := append(append([]int64(nil), prefix...), i)
			v := d.BitsAt(coords)
			if d.DType().IsFloat() {
				fmt.Fprintf(b, "(%g)", array.BitsToFloat(d.DType(), v))
			} else {
				fmt.Fprintf(b, "(%d)", v)
			}
		}
		b.WriteString("]\n")
		return
	}
	b.WriteString("[\n")
	for i := int64(0); i < shape[dim]; i++ {
		renderDense(b, d, append(prefix, i))
	}
	b.WriteString("]")
	if dim > 0 {
		b.WriteString("\n")
	}
}
