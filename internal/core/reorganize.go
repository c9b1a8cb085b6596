package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"path/filepath"
	"slices"
	"sync"

	"arrayvers/internal/array"
	"arrayvers/internal/compress"
	"arrayvers/internal/layout"
	"arrayvers/internal/matmat"
)

// LayoutPolicy selects how Reorganize chooses version encodings (§IV).
type LayoutPolicy int

// Supported policies.
const (
	// PolicyOptimal uses the exact space-optimal layout (augmented-graph
	// MST, generalizing Algorithms 1 and 2).
	PolicyOptimal LayoutPolicy = iota
	// PolicyAlgorithm1 uses the paper's Algorithm 1 (single
	// materialization + MST of deltas).
	PolicyAlgorithm1
	// PolicyAlgorithm2 uses the paper's Algorithm 2 (minimum spanning
	// forest refinement, Appendix B).
	PolicyAlgorithm2
	// PolicyLinearChain materializes the newest version and deltas each
	// earlier version against its successor (the §V-D baseline).
	PolicyLinearChain
	// PolicyHeadBiased materializes the newest version and stores the
	// rest most compactly given that root (§IV-E last paragraph).
	PolicyHeadBiased
	// PolicyWorkloadAware minimizes workload I/O cost (§IV-D).
	PolicyWorkloadAware
)

func (p LayoutPolicy) String() string {
	switch p {
	case PolicyOptimal:
		return "optimal"
	case PolicyAlgorithm1:
		return "algorithm1"
	case PolicyAlgorithm2:
		return "algorithm2"
	case PolicyLinearChain:
		return "linear"
	case PolicyHeadBiased:
		return "head"
	case PolicyWorkloadAware:
		return "workload"
	default:
		return fmt.Sprintf("LayoutPolicy(%d)", int(p))
	}
}

// ReorganizeOptions parameterizes Reorganize.
type ReorganizeOptions struct {
	Policy LayoutPolicy
	// Workload drives PolicyWorkloadAware; query version values are
	// version IDs. It must be non-empty, and every query must name at
	// least one live version with a finite weight > 0.
	Workload []layout.Query
	// MatrixSample is the number of sampled cells the materialization
	// matrix is priced from (§IV-A); ≤ 0 means matrixSample (4096).
	MatrixSample int
	// BatchK, when positive, re-encodes versions in independent
	// consecutive batches of K versions (§IV-E), bounding matrix size and
	// delta-chain length.
	BatchK int
	// plan carries Tune's chosen layout so an uncontended Tune rewrite
	// does not sample every version a second time. It is used only if
	// the rewrite's snapshot is of the same array with the same live
	// versions; otherwise the rewrite replans from live metadata as
	// usual.
	plan *rewritePlan
}

// rewritePlan is a precomputed rewrite input: the layout to build,
// valid for one array (st, not its name: a dropped and recreated array
// is another one) with exactly the live versions ids, since a layout
// names versions by their index in ids. It holds no decoded chunk: the
// build reads what it re-encodes, one chunk column at a time
// (buildRewrite).
type rewritePlan struct {
	st     *arrayState
	ids    []int
	layout layout.Layout
}

// buildDirName is the directory a rewrite builds its generation in.
// The array's rewrites serialize on reorgMu, so one fixed name serves
// them all; the "chunks" prefix puts the leftovers of an interrupted
// build in recovery's sweep path.
const buildDirName = "chunks.build"

// rewriteBuild writes the new chunk generation of one destructive
// rewrite into the data log of ws's build directory, from the array as
// v snapshotted it, and returns the chunk maps of v.ids (entries[i] for
// v.ids[i]). It runs with no store lock held; v's snapshot pins the
// generation it reads.
type rewriteBuild func(v *readView, ws *writeSet) (entries []map[string]map[string]chunkEntry, err error)

// Reorganize re-encodes every live version of an array according to the
// chosen layout policy — the "background re-organization step" of §IV-E.
// Old chunk payloads are dropped (the chunks directory is rewritten).
func (s *Store) Reorganize(name string, opts ReorganizeOptions) error {
	if err := opts.validate(); err != nil {
		return err
	}
	return s.rewrite(name, func(v *readView, ws *writeSet) ([]map[string]map[string]chunkEntry, error) {
		p := opts.plan
		if p == nil || p.st != v.st || !slices.Equal(p.ids, v.ids) {
			// no plan from Tune for this exact state: sample and plan
			l, err := s.planLayout(v, opts)
			if err != nil {
				return nil, err
			}
			p = &rewritePlan{layout: l}
		}
		return s.buildRewrite(v, ws, layoutBases(p.layout, v.ids))
	})
}

// rewrite replaces an array's chunk generation (Reorganize, Compact)
// beside the array's readers and writes, and builds it exactly once.
// Holding only reorgMu, it snapshots the array under a brief store lock,
// builds the new generation into buildDirName and fsyncs it; readers
// and writes to the array proceed meanwhile. Nothing that commits
// during the build can invalidate it: reorgMu excludes every mutator
// that removes or re-encodes versions (DeleteVersion, Heal, the other
// rewrites), writes only append, and an appended version's frames are
// deltas against versions whose decoded content no rewrite changes. So
// the publish, under the array's writeMu, carries the
// versions committed mid-build into the new generation frame for frame
// — the state "rewrite, then those writes" would have produced. The
// publish retires the old generation without waiting for its readers;
// the rewrite's own reference lasts until it returns, so Close waits.
func (s *Store) rewrite(name string, build rewriteBuild) error {
	if err := s.writeGate(name); err != nil {
		return err
	}
	st, err := s.lockArray(name, func(st *arrayState) []*sync.Mutex {
		return []*sync.Mutex{&st.reorgMu}
	})
	if err != nil {
		return err
	}
	defer st.reorgMu.Unlock()
	v, release, err := s.snapshotUncached(name)
	if err != nil {
		return err
	}
	defer release()
	if v.st != st {
		return fmt.Errorf("core: array %q was replaced during the rewrite", name)
	}
	if len(v.ids) == 0 {
		return nil
	}
	// clear the build path up front: a crashed non-durable run (which
	// never sweeps) can have left a stale build there — never append
	// after it
	buildDir := filepath.Join(st.dir, buildDirName)
	ws := newWriteSet(buildDir)
	err = s.fs.RemoveAll(buildDir)
	if err == nil {
		err = s.fs.MkdirAll(buildDir)
	}
	var entries []map[string]map[string]chunkEntry
	if err == nil {
		entries, err = build(v, ws)
	}
	if err == nil {
		// the build's fsyncs run before any write latch is taken, so the
		// publish's critical section is the carry-forward and the commit
		err = ws.sync(s)
	}
	if err == nil {
		// writeMu keeps the publish out of every write's stage-to-install
		// window (a new generation would orphan the staged blobs) and
		// serializes its commit with theirs, which run outside Store.mu
		st.writeMu.Lock()
		err = s.publishRewrite(st, v, buildDir, entries)
		st.writeMu.Unlock()
	}
	if err != nil {
		// not committed: remove the build (publishRewrite removes it under
		// its generation name), since non-durable stores never sweep
		// chunks* debris
		_ = s.fs.RemoveAll(buildDir)
		s.noteDiskPressure(err)
	}
	return err
}

// publishRewrite commits a built and synced rewrite of the versions v
// snapshotted. The protocol:
//
//  1. carry every version committed since the snapshot into the build's
//     log after the built frames, its stored frames copied byte for byte
//     (same base, codec and length; nothing is decoded), and fsync the
//     log;
//  2. rename the build directory to the next generation's name and sync
//     the array directory — the new payloads are now durable but
//     unreferenced;
//  3. stage the new metadata (generation number, every live version's
//     new chunk maps) and commit it as one manifest record — this is
//     the commit point;
//  4. install it, retiring the superseded generation: its last
//     reader's release removes it.
//
// A crash before step 3 leaves the old metadata pointing at the intact
// old generation (recovery sweeps the unreferenced new one); a crash
// after it leaves the new metadata pointing at the fully synced new
// generation (recovery sweeps the old one). Callers hold reorgMu, so
// every snapshot version is still live and the generation unchanged —
// both are checked, as errors — and writeMu, which keeps every other
// metadata writer off the array from the snapshot below to the install;
// Store.mu is only taken for those two. The caller's snapshot keeps
// v's generation in place for the carry-forward's reads.
func (s *Store) publishRewrite(st *arrayState, v *readView, buildDir string, entries []map[string]map[string]chunkEntry) error {
	name := st.Schema.Name
	// a write's commit may have failed uncertainly during the build, and
	// a degraded array takes no commit until it is healed
	if err := s.writeGate(name); err != nil {
		return err
	}
	s.mu.RLock()
	closed, current := s.closed, s.arrays[name] == st
	staged := st.metaClone()
	gen := st.current
	s.mu.RUnlock()
	switch {
	case closed:
		return ErrClosed
	case !current:
		return fmt.Errorf("core: no array %q", name)
	case gen != v.gen:
		return fmt.Errorf("core: array %q changed generation under its rewrite", name)
	}
	pos := indexOf(v.ids)
	// carried are the staged copies of the versions committed since the
	// snapshot, still pointing into v.dir until the carry-forward
	var carried []*versionMeta
	for si, vm := range staged.Versions {
		if vm.Deleted {
			continue
		}
		cp := *vm
		staged.Versions[si] = &cp
		if i, built := pos[vm.ID]; built {
			delete(pos, vm.ID)
			cp.Chunks = entries[i]
		} else {
			carried = append(carried, &cp)
		}
	}
	if len(pos) > 0 {
		return fmt.Errorf("core: array %q lost versions under its rewrite", name)
	}
	if len(carried) > 0 {
		// the build with every stored base kept: each frame is copied, in
		// column order after the built ones, and nothing is decoded
		ws := newWriteSet(buildDir)
		moved, err := s.buildRewrite(viewOf(st, carried), ws, keepBases)
		if err == nil {
			err = ws.sync(s)
		}
		if err != nil {
			return err
		}
		for k, vm := range carried {
			vm.Chunks = moved[k]
		}
	}
	staged.Gen++
	finalDir := filepath.Join(st.dir, chunksDirName(staged.Gen))
	// a leftover directory with this generation name can only be debris
	// from an interrupted rewrite that never committed. Failures here are
	// benign — the metadata still references the old generation, and the
	// build goes under either name — but ENOSPC still stops the store
	err := s.fs.RemoveAll(finalDir)
	if err == nil {
		err = s.fs.Rename(buildDir, finalDir)
	}
	if err == nil && s.opts.Durability {
		err = s.fs.SyncDir(st.dir)
	}
	if err != nil {
		_ = s.fs.RemoveAll(finalDir)
		return err
	}
	if err := s.commitMeta(st, &staged); err != nil {
		if isUncertain(err) {
			// the record may be in the log, referencing finalDir: leave it
			// for the heal to sweep once the log tail is settled
			s.noteCommitFailure(st, err)
		} else {
			_ = s.fs.RemoveAll(finalDir)
		}
		return err
	}
	// decoded content is unchanged, but the new generation's id starts
	// its cache entries afresh; the old one's go with its last release
	s.mu.Lock()
	st.mutateLocked()
	st.installMeta(staged)
	st.current = s.newGeneration(finalDir)
	s.retireLocked(gen, gen.dir, st.current, "")
	s.mu.Unlock()
	s.unpin(gen)
	return nil
}

// planLayout chooses the layout for a full rewrite of v's live versions
// from their sampled cells, applying §IV-E batching when requested. A
// batched plan prices every batch from one matrixInput, so each
// version's cells are gathered once.
func (s *Store) planLayout(v *readView, opts ReorganizeOptions) (layout.Layout, error) {
	ids := v.ids
	in, err := s.matrixInputOf(v, opts.MatrixSample)
	if err != nil {
		return layout.Layout{}, err
	}
	if opts.BatchK <= 0 || opts.BatchK >= len(ids) {
		mm, err := in.matrix(0, len(ids))
		if err != nil {
			return layout.Layout{}, err
		}
		return chooseLayout(mm, ids, opts)
	}
	if opts.Policy == PolicyWorkloadAware {
		// the same unknown-version validation the non-batched path
		// applies, before batching slices the workload per range
		if _, err := remapWorkload(opts.Workload, ids); err != nil {
			return layout.Layout{}, err
		}
	}
	// §IV-E: optimize each batch of K versions independently
	l := layout.NewLayout(len(ids))
	for lo := 0; lo < len(ids); lo += opts.BatchK {
		hi := min(lo+opts.BatchK, len(ids))
		mm, err := in.matrix(lo, hi)
		if err != nil {
			return layout.Layout{}, err
		}
		bopts := opts
		if opts.Policy == PolicyWorkloadAware {
			// batches are laid out independently, so each one sees only
			// the slice of the workload that falls inside it
			bopts.Workload = FilterWorkload(opts.Workload, ids[lo:hi])
		}
		sub, err := chooseLayout(mm, ids[lo:hi], bopts)
		if err != nil {
			return layout.Layout{}, err
		}
		for i := lo; i < hi; i++ {
			l.Parent[i] = sub.Parent[i-lo] + lo
		}
	}
	return l, nil
}

// planMatrix prices the whole matrix of v's live versions at the
// default sample.
func (s *Store) planMatrix(v *readView) (*matmat.Matrix, error) {
	in, err := s.matrixInputOf(v, 0)
	if err != nil {
		return nil, err
	}
	return in.matrix(0, len(v.ids))
}

// matrixSample is the number of cells a dense array's materialization
// matrix is priced from when ReorganizeOptions.MatrixSample is not
// positive, and always for Tune.
const matrixSample = 4096

// matrixInput is what the materialization matrix over a view's live
// versions is priced from, per attribute and version (in view order):
// the cells at one sorted sample draw, gathered one chunk column at a
// time (a dense array, whatever its size: the draw is with
// replacement), or the sparse planes; and the worker pool's size, which
// prices a sampled matrix's pairs.
type matrixInput struct {
	dts     []array.DataType
	cells   int64
	sampled [][][]int64
	sparse  [][]*array.Sparse
	workers int
}

// matrixInputOf prepares v's matrixInput. A dense attribute's cells are
// gathered by sampleColumns, so no version is held whole; a sparse
// array's versions are resolved whole. A sample ≤ 0 means
// matrixSample. Attribute ai's draw is seeded with ai, as
// matmat.Compute's is.
func (s *Store) matrixInputOf(v *readView, sample int) (*matrixInput, error) {
	if sample <= 0 {
		sample = matrixSample
	}
	attrs := v.st.Schema.Attrs
	in := &matrixInput{dts: make([]array.DataType, len(attrs)), cells: array.BoxOf(v.st.Schema.Shape()).NumCells(),
		workers: s.opts.Parallelism}
	ck, err := v.st.chunker()
	if err != nil {
		return nil, err
	}
	for ai, attr := range attrs {
		in.dts[ai] = attr.Type
		if v.st.SparseRep {
			memo := map[int]sparseRes{}
			vs := make([]*array.Sparse, len(v.ids))
			for i, id := range v.ids {
				sp, _, err := s.resolveSparse(v, id, attr.Name, memo, 0, nil)
				if err != nil {
					return nil, err
				}
				vs[i] = sp
			}
			in.sparse = append(in.sparse, vs)
			continue
		}
		g, err := s.sampleColumns(v, attr, locateCells(ck, matmat.Draw(in.cells, sample, int64(ai))))
		if err != nil {
			return nil, err
		}
		in.sampled = append(in.sampled, g)
	}
	return in, nil
}

// sampleColumns returns every live version's cells of attr at the
// located positions, in their order — delta.Gather over each version's
// plane (g[i] is v.ids[i]'s) — from one walk of each chunk column that
// holds a position, on the worker pool: a walk reads each cell as it
// passes the version, so a linear chain holds one chunk per worker.
func (s *Store) sampleColumns(v *readView, attr array.Attribute, b *cellLocs) ([][]int64, error) {
	g := make([][]int64, len(v.ids))
	for i := range g {
		g[i] = make([]int64, len(b.local))
	}
	pos := indexOf(v.ids)
	all := make([]bool, len(v.ids))
	for i := range all {
		all[i] = true
	}
	bufs := s.newChunkBufs()
	defer bufs.release()
	ctx := context.Background() //avlint:allow-ctx a rewrite or Tune plan has no caller context to cancel it
	err := forEachLimit(ctx, len(b.origins), s.opts.Parallelism, func(c int) error {
		at := b.at[c]
		if len(at) == 0 {
			return nil
		}
		col, err := s.columnOf(v, pos, attr, b.ck, b.origins[c])
		if err != nil {
			return err
		}
		raws, err := col.read(s, all)
		if err != nil {
			return err
		}
		return col.walk(raws, all, bufs, func(i int, d *array.Dense) error {
			for _, p := range at {
				g[i][p] = d.Bits(b.local[p])
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}

// indexOf maps each of ids to its index.
func indexOf(ids []int) map[int]int {
	pos := make(map[int]int, len(ids))
	for i, id := range ids {
		pos[id] = i
	}
	return pos
}

// matrix computes the materialization matrix over versions [lo, hi),
// summing costs across attributes.
func (in *matrixInput) matrix(lo, hi int) (*matmat.Matrix, error) {
	n := hi - lo
	total := matmat.New(n)
	for ai, dt := range in.dts {
		var mm *matmat.Matrix
		if in.sparse != nil {
			var err error
			if mm, err = matmat.ComputeSparse(in.sparse[ai][lo:hi]); err != nil {
				return nil, err
			}
		} else {
			mm = matmat.FromSamples(dt, in.cells, in.sampled[ai][lo:hi], in.workers)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				total.Cost[i][j] += mm.Cost[i][j]
			}
		}
	}
	return total, nil
}

func chooseLayout(mm *matmat.Matrix, ids []int, opts ReorganizeOptions) (layout.Layout, error) {
	switch opts.Policy {
	case PolicyOptimal:
		return layout.Optimal(mm), nil
	case PolicyAlgorithm1:
		return layout.Algorithm1(mm), nil
	case PolicyAlgorithm2:
		return layout.Algorithm2(mm), nil
	case PolicyLinearChain:
		return layout.LinearChain(mm.N), nil
	case PolicyHeadBiased:
		return layout.HeadBiasedLayout(mm), nil
	case PolicyWorkloadAware:
		wl, err := remapWorkload(opts.Workload, ids)
		if err != nil {
			return layout.Layout{}, err
		}
		return layout.WorkloadAware(mm, wl), nil
	default:
		return layout.Layout{}, fmt.Errorf("core: unknown layout policy %d", opts.Policy)
	}
}

// validate checks the workload of PolicyWorkloadAware before anything
// is decoded.
func (o ReorganizeOptions) validate() error {
	if o.Policy == PolicyWorkloadAware {
		return validateWorkload(o.Workload)
	}
	return nil
}

// validateWorkload rejects a caller workload that cannot describe a
// query mix: none at all, a query naming no version, or a weight that
// is not finite and positive (a negative weight would lay the array out
// for the inverted workload). Unknown versions are rejected against the
// live version set by remapWorkload.
func validateWorkload(wl []layout.Query) error {
	if len(wl) == 0 {
		return errors.New("core: empty workload")
	}
	for i, q := range wl {
		if len(q.Versions) == 0 {
			return fmt.Errorf("core: workload query %d names no version", i)
		}
		if !(q.Weight > 0) || math.IsInf(q.Weight, 1) {
			return fmt.Errorf("core: workload query %d has weight %v, want a finite weight > 0", i, q.Weight)
		}
	}
	return nil
}

// remapWorkload translates query version IDs into layout indices.
func remapWorkload(wl []layout.Query, ids []int) ([]layout.Query, error) {
	pos := indexOf(ids)
	out := make([]layout.Query, len(wl))
	for qi, q := range wl {
		mapped := layout.Query{Weight: q.Weight}
		for _, v := range q.Versions {
			p, ok := pos[v]
			if !ok {
				return nil, fmt.Errorf("core: workload references unknown version %d", v)
			}
			mapped.Versions = append(mapped.Versions, p)
		}
		out[qi] = mapped
	}
	return out, nil
}

// FilterWorkload restricts workload queries to the given version IDs:
// versions outside the set are dropped from each query, and queries left
// empty are removed. Batched rewrites use it to slice the workload per
// batch.
func FilterWorkload(wl []layout.Query, ids []int) []layout.Query {
	in := make(map[int]bool, len(ids))
	for _, id := range ids {
		in[id] = true
	}
	var out []layout.Query
	for _, q := range wl {
		var vs []int
		for _, v := range q.Versions {
			if in[v] {
				vs = append(vs, v)
			}
		}
		if len(vs) > 0 {
			out = append(out, layout.Query{Versions: vs, Weight: q.Weight})
		}
	}
	return out
}

// baseRule names the base a rewrite gives a stored chunk: the id of the
// version chunk i of a column (entries: the column's stored entries, in
// view order) is to be delta-encoded against, or -1 to materialize it.
// A chunk whose stored base it names is carried (buildRewrite).
type baseRule func(entries []chunkEntry, i int) int

// layoutBases is Reorganize's rule: the base layout l gives version
// ids[i], whatever is stored.
func layoutBases(l layout.Layout, ids []int) baseRule {
	return func(_ []chunkEntry, i int) int {
		if p := l.Parent[i]; p != i {
			return ids[p]
		}
		return -1
	}
}

// keepBases is the rule of Compact and of a publish's carry-forward:
// every chunk keeps its stored base, so every frame is carried and
// nothing is decoded.
func keepBases(entries []chunkEntry, i int) int { return entries[i].Base }

// skipBase is DeleteVersion's rule for version id, at view index d: a
// chunk based on id takes id's own stored base at that chunk position,
// or is materialized where id's chunk is a root; every other chunk
// keeps its base.
func skipBase(id, d int) baseRule {
	return func(entries []chunkEntry, i int) int {
		if b := entries[i].Base; b != id {
			return b
		}
		return entries[d].Base
	}
}

// inPlace reports whether a build writes into the generation it reads,
// as DeleteVersion's does: a carried chunk is then left where it is.
func (c *insertCtx) inPlace() bool { return c.ws.dir == c.v.gen.dir }

// buildRewrite writes every live version of v into ws's log, each chunk
// with the base rule names, and returns the new chunk entries, one map
// per id. It is the one way a stored chunk moves: Reorganize
// (layoutBases), Compact and the carry-forward (keepBases), and
// DeleteVersion (skipBase). A chunk whose stored entry already has its
// rule's base (a root stays a root, a delta keeps its base) is carried:
// its stored frame is copied byte for byte, sealed with whatever codec
// sealed it. Only the others are encoded, each against its new base's
// chunk, from one walk of their column (buildColumn) — no plane is
// assembled or sliced. In place (insertCtx.inPlace) only the encoded
// frames are appended, and a column with nothing to encode is neither
// read nor written. A dense array is built one chunk column at a time,
// in ck.All()'s row-major order, every version's frame of the chunk in
// id order, so a chunk's chain is one run of the log: the columns are
// built on the pool in windows of Parallelism, and each window is
// appended in column order, so only one window of sealed frames is held
// at once. A sparse version is one container, so its version order is
// already column order (buildSparse).
func (s *Store) buildRewrite(v *readView, ws *writeSet, rule baseRule) ([]map[string]map[string]chunkEntry, error) {
	st := v.st
	ctx := &insertCtx{st: st, v: v, ws: ws, qc: newChunkCache(false), sparse: st.SparseRep,
		goCtx: context.Background()} //avlint:allow-ctx a rewrite has no caller context to cancel it
	n := len(v.ids)
	entries := make([]map[string]map[string]chunkEntry, n)
	for i := range entries {
		entries[i] = make(map[string]map[string]chunkEntry, len(st.Schema.Attrs))
	}
	if st.SparseRep {
		return entries, s.buildSparse(ctx, rule, entries)
	}
	ck, err := st.chunker()
	if err != nil {
		return nil, err
	}
	origins := ck.All()
	pos := indexOf(v.ids)
	bufs := s.newChunkBufs()
	defer bufs.release()
	window := s.opts.Parallelism
	for _, attr := range st.Schema.Attrs {
		for i := range entries {
			entries[i][attr.Name] = make(map[string]chunkEntry, len(origins))
		}
		for lo := 0; lo < len(origins); lo += window {
			cols := min(window, len(origins)-lo)
			blobs := make([][]byte, cols*n)
			built := make([]chunkEntry, cols*n)
			err := forEachLimit(ctx.goCtx, cols, s.opts.Parallelism, func(c int) error {
				col, err := s.columnOf(v, pos, attr, ck, origins[lo+c])
				if err == nil {
					err = s.buildColumn(ctx, col, rule, bufs, blobs[c*n:(c+1)*n], built[c*n:(c+1)*n])
				}
				return err
			})
			if err == nil {
				err = s.appendFrames(ws, blobs, built)
			}
			if err != nil {
				return nil, err
			}
			for c := range cols {
				key := ck.Key(origins[lo+c])
				for i := range entries {
					entries[i][attr.Name][key] = built[c*n+i]
				}
			}
		}
	}
	return entries, nil
}

// buildColumn seals col for the build with rule's bases into blobs and
// built, in view order. A carried chunk's blob is its stored frame, or
// nil in place. The rest are encoded (encodeChunk) from one walk of the
// column over them, their new bases and whatever stored ancestors those
// need: a chunk is encoded as soon as the walk has passed both it and
// its new base, and a copy of a passed chunk is kept only while an
// encode still needs it. One readFrames call reads every frame the
// column needs; a column that only carries reads its frames (none in
// place) and sets up no walk.
func (s *Store) buildColumn(ctx *insertCtx, col *column, rule baseRule, bufs *chunkBufs, blobs [][]byte, built []chunkEntry) error {
	ids := ctx.v.ids
	n := len(ids)
	inPlace := ctx.inPlace()
	copy(built, col.entries)
	encodes := 0
	for i, e := range col.entries {
		if rule(col.entries, i) != e.Base {
			encodes++
		}
	}
	s.rw.carried.Add(int64(n - encodes))
	s.rw.encoded.Add(int64(encodes))
	if encodes == 0 {
		// every frame is carried: copied, or in place left where it is
		if inPlace {
			return nil
		}
		raws, err := col.read(s, nil)
		copy(blobs, raws)
		return err
	}
	// parent[t] is the view index of t's new base (t itself for a root);
	// refs[j] counts the encodes that still need chunk j: its own, and
	// one per target waiting on it as the new base
	var (
		parent  = make([]int, n)
		pending = make([]bool, n)
		want    = make([]bool, n)
		read    = make([]bool, n)
		refs    = make([]int, n)
		waiters = make([][]int, n)
		held    = make([]*array.Dense, n)
	)
	for i, e := range col.entries {
		b := rule(col.entries, i)
		if e.Base == b {
			read[i] = !inPlace
			continue
		}
		p, live := i, true
		if b >= 0 {
			p, live = col.pos[b]
		}
		if !live {
			return fmt.Errorf("core: rewrite bases chunk %s/%s of version %d on version %d, which is not live", col.attr.Name, col.key, ids[i], b)
		}
		parent[i], pending[i], want[i] = p, true, true
		refs[i]++
		if p != i {
			want[p] = true
			refs[p]++
			waiters[p] = append(waiters[p], i)
		}
	}
	on := col.reach(want)
	for i, o := range on {
		read[i] = read[i] || o
	}
	raws, err := col.read(s, read)
	if err != nil {
		return err
	}
	for i := range blobs {
		if !pending[i] && !inPlace {
			blobs[i] = raws[i]
		}
	}
	release := func(j int) {
		if refs[j]--; refs[j] == 0 && held[j] != nil {
			bufs.put(held[j])
			held[j] = nil
		}
	}
	encode := func(t int, target, baseChunk *array.Dense) error {
		p, b := parent[t], 0
		if p != t {
			b = ids[p]
		}
		blob, e, err := s.encodeChunk(ctx, ids[t], col.attr, col.ck, col.origin, map[int]*array.Dense{b: baseChunk}, target, [3]int{b})
		if err != nil {
			return err
		}
		if e.Base < 0 && compress.Codec(e.Codec) == compress.None {
			blob = slices.Clone(blob) // it aliases target, which the walk reuses
		}
		blobs[t], built[t], pending[t] = blob, e, false
		release(t)
		if p != t {
			release(p)
		}
		return nil
	}
	err = col.walk(raws, on, bufs, func(i int, d *array.Dense) error {
		// a root's held[i] is still nil
		if p := parent[i]; pending[i] && (p == i || held[p] != nil) {
			if err := encode(i, d, held[p]); err != nil {
				return err
			}
		}
		for _, t := range waiters[i] {
			if pending[t] && held[t] != nil {
				if err := encode(t, held[t], d); err != nil {
					return err
				}
			}
		}
		if refs[i] > 0 {
			var err error
			held[i], err = bufs.clone(d)
			return err
		}
		return nil
	})
	if err != nil {
		return err
	}
	if i := slices.Index(pending, true); i >= 0 {
		return fmt.Errorf("core: rewrite never encoded chunk %s/%s of version %d", col.attr.Name, col.key, ids[i])
	}
	return nil
}

// buildSparse is buildRewrite for a sparse array: each version's
// container of each attribute, in version order, carried when its
// stored base is rule's (one readFrames call reads them all, none in
// place) and otherwise encoded against its new base (encodeSparse), all
// appended with one appendFrames call. An attribute's containers across
// the versions are its one column.
func (s *Store) buildSparse(ctx *insertCtx, rule baseRule, entries []map[string]map[string]chunkEntry) error {
	v, attrs := ctx.v, ctx.st.Schema.Attrs
	inPlace := ctx.inPlace()
	cols := make([][]chunkEntry, len(attrs))
	for ai, attr := range attrs {
		cols[ai] = make([]chunkEntry, len(v.ids))
		for i, id := range v.ids {
			e, ok := v.byID[id].Chunks[attr.Name]["chunk-full"]
			if !ok {
				return fmt.Errorf("core: version %d missing sparse container for %s", id, attr.Name)
			}
			cols[ai][i] = e
		}
	}
	var (
		blobs   = make([][]byte, 0, len(v.ids)*len(attrs))
		built   = make([]chunkEntry, 0, cap(blobs))
		carried []frameRef
		at      []int // carried[k]'s index in blobs
		encodes = 0
	)
	for i, id := range v.ids {
		for ai, attr := range attrs {
			e, base := cols[ai][i], rule(cols[ai], i)
			if e.Base == base {
				if !inPlace {
					carried = append(carried, frameRef{id, e})
					at = append(at, len(blobs))
				}
				blobs, built = append(blobs, nil), append(built, e)
				continue
			}
			blob, e, err := s.encodeSparse(ctx, id, attr, nil, max(base, 0))
			if err != nil {
				return err
			}
			encodes++
			blobs, built = append(blobs, blob), append(built, e)
		}
	}
	s.rw.carried.Add(int64(len(blobs) - encodes))
	s.rw.encoded.Add(int64(encodes))
	raws, err := s.readFrames(v.gen.dir, carried)
	if err != nil {
		return err
	}
	for k, raw := range raws {
		blobs[at[k]] = raw
	}
	if err := s.appendFrames(ctx.ws, blobs, built); err != nil {
		return err
	}
	for i := range v.ids {
		for ai, attr := range attrs {
			entries[i][attr.Name] = map[string]chunkEntry{"chunk-full": built[i*len(attrs)+ai]}
		}
	}
	return nil
}

// DeleteVersion removes a version. Every chunk of a live version that is
// a delta against it is first re-parented (skipBase): re-encoded against
// the deleted version's own stored base at that chunk position, or
// materialized where its chunk is a root, preserving the no-overwrite
// property for everything still live. Every other chunk keeps its entry
// and writes nothing, and a version none of whose chunks is re-encoded
// keeps its record. Space is reclaimed by Compact.
//
// It takes the shape of every mutator: stage → sync → commit → install.
// The re-parent is the rewrite's column build over the committed
// versions, writing into the generation it reads (buildRewrite in
// place): the re-encoded frames are appended to the generation's data
// log, like a write's, and a column with nothing to re-encode is
// neither read nor written. The re-encodes only ever append, so
// in-flight readers keep decoding their snapshots without a latch. The
// new chunk maps and the deletion flag are staged on copied versionMeta
// records in a staged arrayMeta, synced, committed with one manifest
// record, and installed into the live state only on success — a failed
// commit leaves memory and disk agreeing that the version is still
// live, and sweeps the re-encode's appended frames. Store.mu is held
// only to snapshot and to install, so selects and inserts on every
// other array (and selects of this one) proceed meanwhile. The write
// latch is held throughout because the re-encodes append to the data
// log concurrent writes also append to, and so that no write is between
// its stage and its install; reorgMu to serialize with rewrites.
func (s *Store) DeleteVersion(name string, id int) error {
	if err := s.writeGate(name); err != nil {
		return err
	}
	st, err := s.lockArray(name, func(st *arrayState) []*sync.Mutex {
		return []*sync.Mutex{&st.reorgMu, &st.writeMu}
	})
	if err != nil {
		return err
	}
	defer st.reorgMu.Unlock()
	defer st.writeMu.Unlock()
	// snapshot under a brief store lock; writeMu keeps the generation
	// the re-encodes append into current
	s.mu.RLock()
	switch {
	case s.closed:
		err = ErrClosed
	case s.arrays[name] != st:
		err = fmt.Errorf("core: no array %q", name)
	default:
		_, err = st.version(id)
	}
	if err != nil {
		s.mu.RUnlock()
		return err
	}
	staged := st.metaClone()
	s.mu.RUnlock()
	// a bulk scan's view: it neither reads nor fills the LRU
	v := viewOf(st, staged.Versions)
	v.noLookup, v.noAdmit = true, true
	pos := indexOf(v.ids)
	ws := newWriteSet(v.gen.dir)
	entries, err := s.buildRewrite(v, ws, skipBase(id, pos[id]))
	if err == nil {
		err = s.syncWrites(st, ws)
	}
	if err == nil {
		for si, vm := range staged.Versions {
			i, live := pos[vm.ID]
			switch {
			case !live:
			case vm.ID == id:
				del := *vm
				del.Deleted = true
				staged.Versions[si] = &del
			case !maps.EqualFunc(vm.Chunks, entries[i], maps.Equal):
				cp := *vm
				cp.Chunks = entries[i]
				staged.Versions[si] = &cp
			}
		}
		if err = s.commitMeta(st, &staged); err != nil && isUncertain(err) {
			s.noteCommitFailure(st, err)
		}
	}
	if err != nil {
		ws.sweep(s)
		s.noteDiskPressure(err)
		return err
	}
	s.mu.Lock()
	st.mutateLocked()
	st.installMeta(staged)
	s.mu.Unlock()
	// only the deleted version's decoded chunks are invalid — children
	// were re-encoded but their decoded content is unchanged, so the
	// rest of the array's warm cache stays. A reader that snapshotted
	// before the delete may re-admit an entry after this sweep; no
	// reader can find it (version ids are never reused, and selects
	// reject deleted ids before any cache lookup), so eviction clears it
	s.chunkCache.InvalidateVersion(name, id)
	return nil
}

// syncWrites makes a write-set durable (writeSet.sync). A failed fsync
// may have dropped already-written pages — the on-disk effect is
// uncertain — so the array degrades before anyone writes behind it.
func (s *Store) syncWrites(st *arrayState, ws *writeSet) error {
	err := ws.sync(s)
	if err != nil {
		s.noteCommitFailure(st, err)
	}
	return err
}

// Compact rewrites an array's chunk files keeping only payloads
// referenced by live versions, reclaiming space left behind by
// DeleteVersion and superseded encodings. It is a rewrite like
// Reorganize — same latches, same commit, same column build — whose
// rule keeps every stored base (keepBases), so every frame is carried
// byte for byte, in the build's column order, and nothing is decoded.
func (s *Store) Compact(name string) error {
	return s.rewrite(name, func(v *readView, ws *writeSet) ([]map[string]map[string]chunkEntry, error) {
		return s.buildRewrite(v, ws, keepBases)
	})
}
