package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"arrayvers/internal/array"
	"arrayvers/internal/cache"
	"arrayvers/internal/chunk"
	"arrayvers/internal/compress"
	"arrayvers/internal/delta"
	"arrayvers/internal/trace"
)

// The write path: cut → latch → stage → sync + commit → install.
//
// Every mutation that adds versions — Write (and its conveniences Insert
// and InsertMulti), Branch, Merge — runs one function, write, holding
// the writeMu of every array it writes, taken in name order by its
// caller and released by its caller once write returns. Only work that
// needs the write's delta base runs under it: the caller first cuts
// every dense payload plane into its array's chunks (cutPayloads).
//
//   - stageBatch resolves each array's payloads and encodes every chunk
//     against the head — appending its frames, unsynced, to the
//     generation's data log (io.go) — against a private metadata view.
//     Store.mu is held only long enough to take the snapshot, so writes
//     to different arrays encode concurrently and never stall readers;
//   - finalizeBatch fsyncs every array's log at once — one data fsync
//     per array written, plus the chunks directory when the write
//     created the log — commits every array's staged versions as ONE
//     manifest record with Store.mu released — each array's op carries
//     only the versions this write adds (manifest.go, arrayAppend) — and
//     installs the resulting documents under a brief Store.mu.
//
// writeMu is held from the snapshot to the install, so every write to
// an array stages against its committed predecessor: versions chain
// 1, 2, … and each deltas against its true parent.
//
// Nothing is installed into the live arrayState until the manifest
// append succeeds, so a failed commit leaves in-memory metadata exactly
// equal to on-disk metadata (no phantom versions a select could read
// but a reopen would lose), and the blobs a failed write appended are
// reclaimed at the failure site (writeSet.sweep).

// Plane is the content of one attribute of one version: either a dense
// or a sparse array over the schema's dimensions.
type Plane struct {
	Dense  *array.Dense
	Sparse *array.Sparse
}

// IsSparse reports whether the plane uses the sparse representation.
func (p Plane) IsSparse() bool { return p.Sparse != nil }

func (p Plane) validate(schema array.Schema, attr array.Attribute) error {
	switch {
	case p.Dense != nil && p.Sparse != nil:
		return fmt.Errorf("core: plane has both dense and sparse content")
	case p.Dense != nil:
		if p.Dense.DType() != attr.Type {
			return fmt.Errorf("core: attribute %q expects %v, payload is %v", attr.Name, attr.Type, p.Dense.DType())
		}
		return checkShape(schema, p.Dense.Shape())
	case p.Sparse != nil:
		if p.Sparse.DType() != attr.Type {
			return fmt.Errorf("core: attribute %q expects %v, payload is %v", attr.Name, attr.Type, p.Sparse.DType())
		}
		return checkShape(schema, p.Sparse.Shape())
	default:
		return fmt.Errorf("core: empty plane")
	}
}

func checkShape(schema array.Schema, shape []int64) error {
	want := schema.Shape()
	if len(shape) != len(want) {
		return fmt.Errorf("core: payload has %d dims, schema has %d", len(shape), len(want))
	}
	for i := range want {
		if shape[i] != want[i] {
			return fmt.Errorf("core: payload shape %v, schema shape %v", shape, want)
		}
	}
	return nil
}

// CellUpdate is one element of a delta-list payload: set the cell at
// Coords (for attribute Attr, default the first) to the given bit
// pattern.
type CellUpdate struct {
	Attr   string
	Coords []int64
	Bits   int64
}

// Payload is the content of an Insert, in one of the paper's three forms
// (§II-A): dense, sparse, or a delta-list against a base version.
type Payload struct {
	// Planes carries the full content, one plane per attribute (dense or
	// sparse form).
	Planes []Plane
	// DeltaBase, when positive, selects the delta-list form: the new
	// version equals version DeltaBase except at the listed updates.
	DeltaBase int
	Updates   []CellUpdate
}

// DensePayload wraps a single-attribute dense content.
func DensePayload(d *array.Dense) Payload { return Payload{Planes: []Plane{{Dense: d}}} }

// SparsePayload wraps a single-attribute sparse content.
func SparsePayload(sp *array.Sparse) Payload { return Payload{Planes: []Plane{{Sparse: sp}}} }

// DeltaListPayload builds the delta-list insert form.
func DeltaListPayload(base int, updates []CellUpdate) Payload {
	return Payload{DeltaBase: base, Updates: updates}
}

// insertCtx carries the coordinates one staged mutation encodes
// against: the metadata view it resolves bases through, the write-set
// naming the log its frames go to (the generation it pinned, or a
// rewrite's build), the representation it encodes with, and a per-stage
// chunk memo (never nil) so repeated base reads walk each delta chain
// once. A write's view reads the LRU but never admits to it (noAdmit);
// its own chunks reach the LRU through head, on commit.
type insertCtx struct {
	st    *arrayState
	v     *readView
	ws    *writeSet
	qc    *chunkCache
	goCtx context.Context // cancellation; a write's is its caller's
	// head (a write with a cache) collects the write's cut chunks, keyed
	// but for the generation; nothing writes them after
	head map[cache.Key]*array.Dense
	// the array's representation: open until the first version of an
	// empty array fixes it (repFixed), then binding on every payload
	repFixed bool
	sparse   bool
	fill     int64
}

// writeSet is the span [start, end) one staged mutation appended to the
// data log of the chunks directory dir, for the two jobs that follow
// staging: fsyncing the log once at the commit point, and reclaiming
// the bytes if the mutation fails before committing. Within one
// mutation the array's writeMu (a build: its private directory)
// excludes other appenders, so its appends are contiguous; they are
// recorded one at a time — encodePlane appends after its pool — so the
// set needs no lock.
type writeSet struct {
	dir        string
	start, end int64 // both -1 until the first append
}

func newWriteSet(dir string) *writeSet { return &writeSet{dir: dir, start: -1, end: -1} }

// log is the path of the data log the set's appends go to.
func (w *writeSet) log() string { return filepath.Join(w.dir, dataLogName) }

func (w *writeSet) empty() bool { return w.start < 0 }

// totalBytes is the span's length — the payload volume this mutation
// appended, reported as the commit stages' byte attribution.
func (w *writeSet) totalBytes() int64 { return w.end - w.start }

// sync makes the span durable, the data-durability step of every commit:
// one fsync of the log, counted in DataFsyncs, plus one of the chunks
// directory when the span starts at offset zero — the mutation created
// the log. An append to an existing file changes no directory entry,
// and fsyncing the file persists its inode size, so steady-state appends
// skip the directory flush. The close error is merged — a failed close
// after kernel-buffered writes is silent data loss. No-op without
// Durability.
func (w *writeSet) sync(s *Store) error {
	if !s.opts.Durability || w.empty() {
		return nil
	}
	f, err := s.fs.Append(w.log())
	if err != nil {
		return err
	}
	s.stats.DataFsyncs.Add(1)
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil && w.start == 0 {
		err = s.fs.SyncDir(w.dir)
	}
	return err
}

// sweep reclaims the staged bytes after a failure. A log whose current
// size equals the span's end has seen no later appends, so the span is
// its tail: the log is removed when the span started at offset zero (the
// failed mutation created it) and truncated back otherwise. A log
// someone appended to after us is left alone — the bytes become
// dangling (Verify counts them, Compact reclaims them) — so the sweep
// can never cut another stager's staged frames. Callers must hold the
// array's writeMu so no append can land between the size check and the
// truncate. Best-effort: errors are ignored (the store may be
// mid-crash, or the whole generation already swept by a rewrite); what
// was reclaimed feeds Stats.
func (w *writeSet) sweep(s *Store) {
	if w.empty() {
		return
	}
	path := w.log()
	// the size check is a read, which (like readFrames and recovery's
	// directory scans) stays on the plain os package per the fsio
	// contract; only the Remove/Truncate mutations go through the seam
	info, err := os.Stat(path)
	if err != nil || info.Size() != w.end {
		return
	}
	var reclaimed error
	if w.start == 0 {
		reclaimed = s.fs.Remove(path)
	} else {
		reclaimed = s.fs.Truncate(path, w.start)
	}
	if reclaimed == nil {
		s.addInsertOrphans(1, w.end-w.start)
	}
}

// stagedInsert is one array's share of a write, staged and awaiting its
// commit.
type stagedInsert struct {
	st     *arrayState
	vms    []*versionMeta // staged versions, in order
	ids    []int          // the ids of vms: the write's result
	sparse bool           // representation the payloads were encoded with
	fill   int64
	gen    *generation // the generation the blobs were appended into
	ws     *writeSet
	head   map[cache.Key]*array.Dense // insertCtx.head, admitted on commit
}

// errStagingInvalidated is what a commit reports for a staging that no
// longer matches its array. The writer held the latches that exclude
// every invalidator, so this is a bug, not a race.
var errStagingInvalidated = errors.New("core: staged insert invalidated under its latches")

// lockArray resolves an array and acquires the latches pick selects —
// which MUST be returned in the documented latch order (reorgMu <
// writeMu) — then re-verifies the array was not dropped or
// replaced while waiting, retrying if it was. The caller releases the
// latches in reverse order. Latches are always acquired without
// holding Store.mu.
func (s *Store) lockArray(name string, pick func(st *arrayState) []*sync.Mutex) (*arrayState, error) {
	for {
		s.mu.RLock()
		st, ok := s.arrays[name]
		closed := s.closed
		s.mu.RUnlock()
		if closed {
			return nil, ErrClosed
		}
		if !ok {
			return nil, fmt.Errorf("core: no array %q", name)
		}
		latches := pick(st)
		for _, l := range latches {
			l.Lock()
		}
		s.mu.RLock()
		cur := s.arrays[name]
		s.mu.RUnlock()
		if cur == st {
			return st, nil
		}
		// dropped or replaced while we waited; retry
		for i := len(latches) - 1; i >= 0; i-- {
			latches[i].Unlock()
		}
	}
}

// lockWrite takes the array's write latch. The caller releases
// st.writeMu.
func (s *Store) lockWrite(name string) (*arrayState, error) {
	return s.lockArray(name, func(st *arrayState) []*sync.Mutex {
		return []*sync.Mutex{&st.writeMu}
	})
}

// write is the one commit mechanism behind every write. The caller holds
// the writeMu of each sts[i], taken in name order, and releases them
// after write returns; cuts[i] are sts[i]'s payloads (cutPayloads). write
// stages every array, then commits every staging as one manifest record:
// every array gains its versions, or none does and every appended blob
// is reclaimed. ids[i] are sts[i]'s new version ids.
func (s *Store) write(ctx context.Context, sts []*arrayState, cuts []*payloadCut, kind string) ([][]int, error) {
	staged := make([]*stagedInsert, 0, len(sts))
	var err error
	for i, st := range sts {
		pc := cuts[i]
		if pc.st != st {
			// cut for an array since dropped and recreated: staging cuts
			// again, under the latch
			pc = &payloadCut{st: st, ps: pc.ps, chunks: make([][][]*array.Dense, len(pc.ps))}
		}
		var ins *stagedInsert
		if ins, err = s.stageBatch(ctx, pc, kind); err != nil {
			break
		}
		staged = append(staged, ins)
	}
	if err == nil {
		err = s.finalizeBatch(ctx, staged)
	}
	if err != nil {
		for _, ins := range staged {
			ins.ws.sweep(s)
		}
		return nil, err
	}
	ids := make([][]int, len(staged))
	for i, ins := range staged {
		ids[i] = ins.ids
	}
	return ids, nil
}

// payloadCut is one array's payloads of a write, each dense plane cut
// into the chunks of st, the arrayState the cut was made for:
// chunks[j][ai] is payload j's attribute ai in ck.All() order. A chunk
// box depends only on the schema and the chunk stride, which never
// change, so the cut needs no latch.
type payloadCut struct {
	st     *arrayState
	ps     []Payload
	chunks [][][]*array.Dense
}

// cutPayloads cuts ps for st (nil: no such array, nothing is cut).
// Whatever it leaves uncut is cut when it is staged, which reports any
// error: a delta-list payload, whose plane needs its base, and a cut
// that failed, say on a cancelled ctx.
func (s *Store) cutPayloads(ctx context.Context, st *arrayState, ps []Payload) *payloadCut {
	pc := &payloadCut{st: st, ps: ps, chunks: make([][][]*array.Dense, len(ps))}
	for j, p := range ps {
		if st != nil && p.DeltaBase == 0 {
			pc.chunks[j], _ = s.cutPlanes(ctx, st, p.Planes) // on error nil: staging cuts again and reports it
		}
	}
	return pc
}

// cutPlanes cuts each plane that validates as a dense plane of st's
// attribute into st's chunks, in ck.All() order, on the worker pool.
// Any other plane has no chunks; staging reports what is wrong with it.
func (s *Store) cutPlanes(ctx context.Context, st *arrayState, planes []Plane) ([][]*array.Dense, error) {
	ck, err := st.chunker()
	if err != nil {
		return nil, err
	}
	var origins [][]int64 // enumerated for the first dense plane only
	out := make([][]*array.Dense, len(planes))
	for ai, pl := range planes {
		if ai >= len(st.Schema.Attrs) || pl.Dense == nil || pl.validate(st.Schema, st.Schema.Attrs[ai]) != nil {
			continue
		}
		if origins == nil {
			origins = ck.All()
		}
		out[ai] = make([]*array.Dense, len(origins))
		if err := forEachLimit(ctx, len(origins), s.opts.Parallelism, func(i int) error {
			var err error
			out[ai][i], err = pl.Dense.Slice(ck.Box(origins[i]))
			return err
		}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// stageBatch resolves and encodes a batch of payloads against a private
// metadata snapshot, appending chunk frames (unsynced) to the pinned
// generation's data log. On success the returned stagedInsert is ready to sync
// and commit; on error every appended blob has been reclaimed. Its ids
// follow the committed NextID. Callers hold pc.st.writeMu.
func (s *Store) stageBatch(ctx context.Context, pc *payloadCut, kind string) (*stagedInsert, error) {
	st, ps := pc.st, pc.ps
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// snapshot under the store lock: metadata view and the next id.
	// The caller's writeMu keeps the view's generation current — no
	// rewrite can publish and no drop can retire it under the appends.
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, ErrClosed
	}
	name := st.Schema.Name
	if s.arrays[name] != st {
		s.mu.RUnlock()
		return nil, fmt.Errorf("core: no array %q", name)
	}
	v := viewOf(st, st.Versions)
	v.noAdmit = true
	repFixed := len(st.Versions) > 0
	sparse, fill := st.SparseRep, st.Fill
	baseID := st.NextID
	s.mu.RUnlock()

	ins := &stagedInsert{st: st, gen: v.gen, ws: newWriteSet(v.gen.dir), ids: make([]int, len(ps))}
	for j := range ps {
		ins.ids[j] = baseID + j
	}
	ictx := &insertCtx{st: st, v: v, ws: ins.ws, qc: newChunkCache(false), repFixed: repFixed, sparse: sparse, fill: fill, goCtx: ctx}
	if s.chunkCache != nil {
		ictx.head = map[cache.Key]*array.Dense{}
	}
	fail := func(err error) (*stagedInsert, error) {
		ins.ws.sweep(s)
		s.noteDiskPressure(err) // staging failures are benign, ENOSPC is not
		return nil, err
	}
	encStart := time.Now()
	for j, p := range ps {
		if err := ctx.Err(); err != nil {
			return fail(err)
		}
		vm, err := s.stagePayload(ictx, p, pc.chunks[j], ins.ids[j], kind)
		if err != nil {
			return fail(err)
		}
		ins.vms = append(ins.vms, vm)
	}
	s.observeCommit(trace.FromContext(ctx), StageStageEncode, encStart, ins.ws.totalBytes())
	ins.sparse, ins.fill, ins.head = ictx.sparse, ictx.fill, ictx.head
	return ins, nil
}

// stagePayload resolves, validates, and encodes one payload as version
// id. The context's representation state (repFixed/sparse/fill) carries
// across a staging session: the first version of an empty array fixes
// it, later payloads must match. The staged version is published through the
// context's view, so later payloads of the same session chain their
// lineage to it and may delta-encode against it. chunks are p's planes
// cut into chunks (cutPayloads); nil, they are cut here.
func (s *Store) stagePayload(ctx *insertCtx, p Payload, chunks [][]*array.Dense, id int, kind string) (*versionMeta, error) {
	st := ctx.st
	planes, parents, err := s.resolvePayload(ctx, p)
	if err != nil {
		return nil, err
	}
	if chunks == nil {
		if chunks, err = s.cutPlanes(ctx.goCtx, st, planes); err != nil {
			return nil, err
		}
	}
	// the representation is fixed by the first inserted version
	if !ctx.repFixed {
		ctx.repFixed, ctx.sparse = true, planes[0].IsSparse()
		if ctx.sparse {
			ctx.fill = planes[0].Sparse.Fill()
		}
	}
	for i, pl := range planes {
		if pl.IsSparse() != ctx.sparse {
			return nil, fmt.Errorf("core: array %q uses the %s representation; payload attribute %d does not",
				st.Schema.Name, repName(ctx.sparse), i)
		}
		if ctx.sparse && pl.Sparse.Fill() != ctx.fill {
			return nil, fmt.Errorf("core: array %q has default value %d, payload has %d",
				st.Schema.Name, ctx.fill, pl.Sparse.Fill())
		}
	}
	vm := &versionMeta{
		ID:      id,
		Parents: parents,
		Time:    s.clock(),
		Kind:    kind,
		Chunks:  make(map[string]map[string]chunkEntry),
	}
	// the delta base is the staging view's head, so a later member of a
	// batch deltas against an earlier one; each chunk keeps a delta only
	// when that is smaller (encodePlane)
	baseID := 0
	if s.opts.AutoDelta {
		baseID = ctx.v.newest(0)
	}
	for ai, attr := range st.Schema.Attrs {
		entries, err := s.encodePlane(ctx, id, attr, planes[ai].Sparse, chunks[ai], baseID)
		if err != nil {
			return nil, err
		}
		vm.Chunks[attr.Name] = entries
	}
	ctx.v.byID[id] = vm
	ctx.v.ids = append(ctx.v.ids, id)
	return vm, nil
}

// finalizeBatch commits one write, all or nothing: it validates each
// staging against its array's live state under a brief Store.mu, makes
// the staged payloads durable, commits every array's staged document as
// ONE manifest record, and installs them. The record is appended with
// Store.mu RELEASED — each array's writeMu, held by the caller,
// serializes the commit against every other metadata writer on that
// array — so concurrent selects and writes to other arrays never stall
// behind the commit's fsyncs.
func (s *Store) finalizeBatch(ctx context.Context, staged []*stagedInsert) error {
	tr := trace.FromContext(ctx)
	for _, ins := range staged {
		// the previous writer's commit may have failed uncertainly while
		// this one waited for the latch: its record may be in the log, so
		// a degraded array takes no commit until it is healed
		if err := s.writeGate(ins.st.Schema.Name); err != nil {
			return err
		}
	}
	ops := make([]manifestOp, len(staged))
	installed, bytes := 0, int64(0)
	s.mu.RLock()
	for i, ins := range staged {
		doc, err := s.validateLocked(ins)
		if err != nil {
			s.mu.RUnlock()
			return err
		}
		ops[i] = appendOp(ins.st.Schema.Name, doc, ins.vms)
		installed += len(ins.vms)
		bytes += ins.ws.totalBytes()
	}
	s.mu.RUnlock()
	// data before metadata: one fsync of each array's log, plus its
	// chunks directory when the write created the log, every array's at
	// once; a failed one degrades its own array and commits nothing
	t0 := time.Now()
	if err := forEachLimit(context.WithoutCancel(ctx), len(staged), len(staged), func(i int) error {
		return s.syncWrites(staged[i].st, staged[i].ws)
	}); err != nil {
		return err
	}
	if s.opts.Durability {
		s.observeCommit(tr, StageDataFsync, t0, bytes)
	}
	t0 = time.Now()
	err := s.man.commit(ops)
	s.observeCommit(tr, StageMetaCommit, t0, 0)
	if err != nil {
		if isUncertain(err) {
			// the append (or its fsync) failed: the record may be in the
			// log while memory rolls back
			for _, ins := range staged {
				s.noteCommitFailure(ins.st, err)
			}
		} else {
			s.noteDiskPressure(err) // benign unless ENOSPC
		}
		return err
	}
	t0 = time.Now()
	s.mu.Lock()
	for i, ins := range staged {
		ins.st.mutateLocked()
		ins.st.installMeta(*ops[i].doc)
	}
	s.addGroupCommit(installed)
	s.mu.Unlock()
	// write-through: the committed chunks are the next write's delta base
	// (the retained head); every writeMu is still held, so the generation
	// each array staged into is still current
	for _, ins := range staged {
		for k, d := range ins.head {
			k.Gen = ins.gen.id
			s.chunkCache.Put(k, d)
		}
	}
	s.observeCommit(tr, StageInstall, t0, 0)
	s.prof.batchSize.Observe(float64(installed))
	return nil
}

// validateLocked checks one staging against its array's live state and
// builds the document that installs it. Only the closed check can fire:
// Close marks the store closed without the write latch. The others guard
// the latch rule — under the writer's writeMu no rewrite, delete or drop
// can have moved the generation, removed a delta base or the array, and
// the previous write to the array installed before this one staged, so
// its representation is the one staged against. Callers hold Store.mu.
func (s *Store) validateLocked(ins *stagedInsert) (*arrayMeta, error) {
	st := ins.st
	switch {
	case s.closed:
		return nil, ErrClosed
	case s.arrays[st.Schema.Name] != st:
		return nil, fmt.Errorf("core: no array %q", st.Schema.Name)
	case ins.gen != st.current:
		return nil, errStagingInvalidated
	case len(st.Versions) > 0 && (ins.sparse != st.SparseRep || (ins.sparse && ins.fill != st.Fill)):
		return nil, fmt.Errorf("core: array %q uses the %s representation; staged payload does not",
			st.Schema.Name, repName(st.SparseRep))
	}
	if !basesLive(st, ins) {
		return nil, errStagingInvalidated
	}
	doc := st.metaClone()
	if len(doc.Versions) == 0 {
		doc.SparseRep, doc.Fill = ins.sparse, ins.fill
	}
	for _, vm := range ins.vms {
		doc.Versions = append(doc.Versions, vm)
		if vm.ID >= doc.NextID {
			doc.NextID = vm.ID + 1
		}
	}
	return &doc, nil
}

// basesLive reports whether every delta base the staged insert
// references is still live. It looks up only the distinct bases the
// staged chunks name — usually the one head version — not every live
// version. Callers hold Store.mu.
func basesLive(st *arrayState, ins *stagedInsert) bool {
	live := make(map[int]bool, len(ins.vms)+1)
	for _, vm := range ins.vms {
		for _, chunks := range vm.Chunks {
			for _, e := range chunks {
				if e.Base < 0 || live[e.Base] {
					continue
				}
				if _, err := st.version(e.Base); err != nil {
					return false
				}
				live[e.Base] = true
			}
		}
		// within the batch, later members may base on earlier ones
		live[vm.ID] = true
	}
	return true
}

func repName(sparse bool) string {
	if sparse {
		return "sparse"
	}
	return "dense"
}

// resolvePayload expands the three payload forms into full per-attribute
// planes and the implied lineage parents, resolving content through the
// staging context's metadata view (which includes earlier members of
// the same batch).
func (s *Store) resolvePayload(ctx *insertCtx, p Payload) ([]Plane, []int, error) {
	st, v := ctx.st, ctx.v
	var parents []int
	if head := v.newest(0); head > 0 {
		parents = []int{head}
	}
	if p.DeltaBase > 0 {
		// delta-list form: inherit the base version and apply updates
		if _, err := v.version(p.DeltaBase); err != nil {
			return nil, nil, err
		}
		full := array.BoxOf(st.Schema.Shape())
		planes := make([]Plane, len(st.Schema.Attrs))
		for ai, attr := range st.Schema.Attrs {
			pl, err := s.readRegionView(ctx.goCtx, v, p.DeltaBase, attr.Name, full, ctx.qc, nil)
			if err != nil {
				return nil, nil, err
			}
			if pl.Sparse != nil {
				// the stage-wide chunk memo shares decoded sparse planes
				// across reads; the updates below must not corrupt it
				pl.Sparse = pl.Sparse.Clone()
			}
			planes[ai] = pl
		}
		for _, u := range p.Updates {
			ai := 0
			if u.Attr != "" {
				ai = st.Schema.AttrIndex(u.Attr)
				if ai < 0 {
					return nil, nil, fmt.Errorf("core: delta-list update names unknown attribute %q", u.Attr)
				}
			}
			if len(u.Coords) != len(st.Schema.Dims) {
				return nil, nil, fmt.Errorf("core: delta-list update has %d coords, schema has %d dims", len(u.Coords), len(st.Schema.Dims))
			}
			if planes[ai].IsSparse() {
				flat := flatIndex(st.Schema.Shape(), u.Coords)
				planes[ai].Sparse.SetBits(flat, u.Bits)
			} else {
				planes[ai].Dense.SetBitsAt(u.Coords, u.Bits)
			}
		}
		return planes, []int{p.DeltaBase}, nil
	}
	if len(p.Planes) != len(st.Schema.Attrs) {
		return nil, nil, fmt.Errorf("core: payload has %d planes, schema has %d attributes", len(p.Planes), len(st.Schema.Attrs))
	}
	for ai, attr := range st.Schema.Attrs {
		if err := p.Planes[ai].validate(st.Schema, attr); err != nil {
			return nil, nil, err
		}
	}
	return p.Planes, parents, nil
}

func flatIndex(shape, coords []int64) int64 {
	idx := int64(0)
	for i, c := range coords {
		idx = idx*shape[i] + c
	}
	return idx
}

// cellLocs are flat cell positions of a whole array located in its
// chunks, so a version's cells there are read one chunk column at a
// time (sampleColumns).
type cellLocs struct {
	ck      *chunk.Chunker
	origins [][]int64 // every chunk, row-major (ck.All)
	at      [][]int   // the positions each chunk holds, ascending
	local   []int64   // each position's flat index within its chunk
}

func locateCells(ck *chunk.Chunker, idx []int64) *cellLocs {
	b := &cellLocs{ck: ck, origins: ck.All(), local: make([]int64, len(idx))}
	b.at = make([][]int, len(b.origins))
	for i, flat := range idx {
		c, l := ck.Locate(flat)
		b.at[c] = append(b.at[c], i)
		b.local[i] = l
	}
	return b
}

// encodePlane writes every chunk of one attribute of version id — a
// write's encoder. The target chunk is cut[i], the payload cut into
// chunks (cutPayloads; memoized in ctx.qc under id, so a later member
// of a batch finds its base there, and the chunk the commit writes
// through to the LRU). A chunk that no delta against the head shrinks
// falls back to the two versions before the head, when resident and
// alike: two writers' payloads can commit out of the order they were
// sent in, so a payload's true predecessor may sit just behind the
// head. A sparse version (sp) is one container (encodeSparse). Once
// every chunk is sealed, appendFrames stores them.
func (s *Store) encodePlane(ctx *insertCtx, id int, attr array.Attribute, sp *array.Sparse, cut []*array.Dense, baseID int) (map[string]chunkEntry, error) {
	if ctx.sparse {
		// sparse versions are stored as a single container (their entire
		// coordinate list); chunk-level subdivision buys nothing when the
		// data is this sparse.
		sealed, e, err := s.encodeSparse(ctx, id, attr, sp, baseID)
		if err != nil {
			return nil, err
		}
		es := []chunkEntry{e}
		if err := s.appendFrames(ctx.ws, [][]byte{sealed}, es); err != nil {
			return nil, err
		}
		return map[string]chunkEntry{"chunk-full": es[0]}, nil
	}
	ck, err := ctx.st.chunker()
	if err != nil {
		return nil, err
	}
	// Fan the per-chunk encode+compress out on the worker pool. Chunks
	// are independent: each worker touches only its own chunk's memo map
	// and result slots. The frames are appended after the pool, in
	// row-major chunk order, so where each lands does not depend on the
	// schedule.
	origins := ck.All()
	locals := ctx.qc.chunkMaps(attr.Name, ck, origins)
	results := make([]chunkEntry, len(origins))
	blobs := make([][]byte, len(origins))
	bases := [3]int{baseID}
	if baseID > 0 { // baseID is the head
		bases[1], bases[2] = ctx.v.newest(1), ctx.v.newest(2)
	}
	err = forEachLimit(ctx.goCtx, len(origins), s.opts.Parallelism, func(i int) error {
		locals[i][id] = cut[i]
		var err error
		blobs[i], results[i], err = s.encodeChunk(ctx, id, attr, ck, origins[i], locals[i], cut[i], bases)
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := s.appendFrames(ctx.ws, blobs, results); err != nil {
		return nil, err
	}
	entries := make(map[string]chunkEntry, len(origins))
	for i, origin := range origins {
		key := ck.Key(origin)
		entries[key] = results[i]
		if ctx.head != nil {
			ctx.head[cache.Key{Array: ctx.st.Schema.Name, Version: id, Attr: attr.Name, Chunk: key}] = cut[i]
		}
	}
	return entries, nil
}

// encodeSparse seals version id's sparse container of attr — sp, or,
// nil, its stored content resolved through the context's view and memo
// — as a sparse-ops delta against baseID (when > 0) if that is smaller,
// else materialized, and returns the frame and its entry, which
// appendFrames places.
func (s *Store) encodeSparse(ctx *insertCtx, id int, attr array.Attribute, sp *array.Sparse, baseID int) ([]byte, chunkEntry, error) {
	memo := ctx.qc.sparseMap(attr.Name)
	target := sp
	if target == nil {
		var err error
		if target, _, err = s.resolveSparse(ctx.v, id, attr.Name, memo, 0, nil); err != nil {
			return nil, chunkEntry{}, err
		}
	}
	payload, entryBase := array.MarshalSparse(target), -1
	if baseID > 0 {
		base, _, err := s.resolveSparse(ctx.v, baseID, attr.Name, memo, 0, nil)
		if err != nil {
			return nil, chunkEntry{}, err
		}
		blob, err := delta.EncodeSparseOps(target, base)
		if err != nil {
			return nil, chunkEntry{}, err
		}
		if len(blob) < len(payload) {
			payload, entryBase = blob, baseID
		}
	}
	sealed, used, err := seal(pickCodec(s.opts.Codec, false), payload, compress.Params{Elem: 1})
	if err != nil {
		return nil, chunkEntry{}, err
	}
	return sealed, chunkEntry{Length: int64(len(sealed)), Codec: uint8(used), Base: entryBase}, nil
}

// encodeChunk seals target, version id's chunk of attr at origin — the
// one chunk encoder behind writes and every rewrite's build — and
// returns the frame and its entry, which appendFrames places. Against
// bases[0] (when > 0) the chunk is delta-encoded, the base chunk
// resolved through the context's view and the chunk's memo map local —
// never sliced out of a base plane — and the delta is kept when it is
// smaller than the raw chunk ("disk space usage is calculated by trying
// both methods and choosing the more economical one", §III-B.3); the
// bounded encode refuses a far pair from its first pass. bases[1] and
// bases[2] are fallbacks, tried only when no earlier base kept a delta
// and only when their chunk is resident (in local or the LRU) and
// alike.
func (s *Store) encodeChunk(ctx *insertCtx, id int, attr array.Attribute, ck *chunk.Chunker, origin []int64, local map[int]*array.Dense, target *array.Dense, bases [3]int) ([]byte, chunkEntry, error) {
	var err error
	payload := target.Bytes()
	entryBase := -1
	for k, b := range bases {
		if b <= 0 || entryBase >= 0 {
			break
		}
		var baseChunk *array.Dense
		if k == 0 {
			if baseChunk, err = s.resolveDenseChunk(ctx.v, b, attr.Name, ck, origin, local, false, nil); err != nil {
				return nil, chunkEntry{}, err
			}
		} else if baseChunk = local[b]; baseChunk == nil { // a fallback is tried only when resident
			d, _ := s.chunkCache.Get(cache.Key{Array: ctx.st.Schema.Name, Gen: ctx.v.gen.id, Version: b, Attr: attr.Name, Chunk: ck.Key(origin)})
			baseChunk, _ = d.(*array.Dense)
		}
		if k > 0 && (baseChunk == nil || !delta.Alike(target, baseChunk)) {
			continue
		}
		blob, err := delta.EncodeHybridUnder(target, baseChunk, len(payload))
		if err != nil {
			return nil, chunkEntry{}, err
		}
		if blob != nil {
			payload, entryBase = blob, b
		}
	}
	rawDense := entryBase < 0
	sealed, used, err := seal(pickCodec(s.opts.Codec, rawDense), payload, sealParams(rawDense, ck.Box(origin), attr.Type))
	if err != nil {
		return nil, chunkEntry{}, err
	}
	return sealed, chunkEntry{Length: int64(len(sealed)), Codec: uint8(used), Base: entryBase}, nil
}

// Branch creates a new named array whose first version is a copy of the
// given version of an existing array (§II-A: "Branch operates identically
// to Insert except that a new named version is created"; Appendix A:
// "branches are formed off of a particular version of an existing array
// ... they create a new array with a new name").
func (s *Store) Branch(srcName string, srcVersion int, newName string) error {
	ctx := context.Background()
	schema, planes, err := s.readVersion(ctx, srcName, srcVersion)
	if err != nil {
		return err
	}
	schema.Name = newName
	from := &BranchRef{Array: srcName, Version: srcVersion}
	return s.createWithVersions(ctx, schema, from, "branch", []Payload{{Planes: planes}})
}

// readVersion reconstructs every attribute of one version from a
// metadata snapshot, with no store lock held and without touching the
// decoded-chunk cache.
func (s *Store) readVersion(ctx context.Context, name string, id int) (array.Schema, []Plane, error) {
	v, release, err := s.snapshotUncached(name)
	if err != nil {
		return array.Schema{}, nil, err
	}
	defer release()
	if _, err := v.version(id); err != nil {
		return array.Schema{}, nil, err
	}
	schema := v.st.Schema
	full := array.BoxOf(schema.Shape())
	qc := newChunkCache(false)
	planes := make([]Plane, len(schema.Attrs))
	for ai, attr := range schema.Attrs {
		if planes[ai], err = s.readRegionView(ctx, v, id, attr.Name, full, qc, nil); err != nil {
			return array.Schema{}, nil, err
		}
	}
	return schema, planes, nil
}

// createWithVersions creates an array and commits ps as its first
// versions through the one write path. The new array's write latch is
// held from before it becomes visible, so every other write to it stages
// after these versions; if they fail to commit the creation is rolled
// back with a committed drop. The name stays reserved in s.creating
// until then, so a Close racing the creation waits for its outcome: the
// versions, or the drop — never an empty array whose creator failed.
func (s *Store) createWithVersions(ctx context.Context, schema array.Schema, from *BranchRef, kind string, ps []Payload) error {
	if err := schema.Validate(); err != nil {
		return err
	}
	st, err := s.newArrayState(schema, from)
	if err != nil {
		return err
	}
	pc := s.cutPayloads(ctx, st, ps)
	st.writeMu.Lock()
	defer st.writeMu.Unlock()
	if err := s.publishArray(st, true); err != nil {
		return err
	}
	defer s.endCreate(schema.Name)
	if _, err := s.write(ctx, []*arrayState{st}, []*payloadCut{pc}, kind); err != nil {
		if derr := s.dropArray(st, true); derr != nil {
			return fmt.Errorf("%w (rolling back array %q also failed: %v)", err, schema.Name, derr)
		}
		return err
	}
	return nil
}

// VersionRef addresses a version of a named array.
type VersionRef struct {
	Array   string
	Version int
}

// Merge is the inverse of Branch (§II-A): it combines two or more parent
// versions into a new array whose version sequence is the parents in
// order. It does not combine data from two arrays into one array; the
// result's history records all parents, making the version hierarchy a
// graph rather than a tree. The parents commit as one batch.
func (s *Store) Merge(newName string, parents []VersionRef) error {
	if len(parents) < 2 {
		return fmt.Errorf("core: merge requires at least two parent versions")
	}
	ctx := context.Background()
	var schema array.Schema
	ps := make([]Payload, len(parents))
	for i, p := range parents {
		psch, planes, err := s.readVersion(ctx, p.Array, p.Version)
		if err != nil {
			return err
		}
		ps[i] = Payload{Planes: planes}
		if i == 0 {
			schema = psch
			schema.Name = newName
			continue
		}
		if err := checkShape(schema, psch.Shape()); err != nil {
			return fmt.Errorf("core: merge parents have incompatible shapes: %w", err)
		}
		if len(psch.Attrs) != len(schema.Attrs) {
			return fmt.Errorf("core: merge parents have different attribute counts")
		}
		for ai := range schema.Attrs {
			if psch.Attrs[ai].Type != schema.Attrs[ai].Type {
				return fmt.Errorf("core: merge parents disagree on attribute %d type", ai)
			}
		}
	}
	return s.createWithVersions(ctx, schema, nil, "merge", ps)
}
