package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"arrayvers/internal/array"
	"arrayvers/internal/fsio"
	"arrayvers/internal/layout"
)

// The crash-point matrix: a fixed insert → delta-list → delete-version →
// reorganize → compact → reorganize-beside-an-insert workload is run once to count every mutating
// filesystem step (write, sync, rename, dir-sync, mkdir, remove,
// truncate), then re-run from scratch once per step with an injected
// crash at exactly that step. After each crash the store is reopened
// with recovery on; every version whose commit succeeded before the
// crash must read back byte-identical, the interrupted operation must be
// atomically in or out, Verify must pass, and recovery must never have
// dropped a committed version (the commit-protocol invariant: data is
// synced before the metadata rename).

// crashModel tracks what the workload committed.
type crashModel struct {
	// content maps committed version id -> expected cells.
	content map[int]*array.Dense
	// pendingID/pendingContent describe the operation the crash
	// interrupted, when it has a maybe-committed version to account for.
	pendingID      int
	pendingContent *array.Dense
	// pendingDeleted is the id of a version whose DeleteVersion was
	// interrupted (it may be gone or still fully readable).
	pendingDeleted int
	// pendingBatchIDs/pendingBatchContent describe an interrupted
	// three-payload Write: it shares one commit, so after recovery either
	// every member is present (byte-identical) or none is.
	pendingBatchIDs     []int
	pendingBatchContent []*array.Dense
	// aux tracks the second array ("Aux"), which exercises the
	// CreateArray and DeleteArray (tombstone) crash points.
	auxInsertOK  bool // Aux's single insert committed
	auxDeleteTry bool // DeleteArray("Aux") was attempted
	auxDeleteOK  bool // DeleteArray("Aux") returned success
	// carried records whether the insert fired inside a Reorganize's
	// build committed and that Reorganize then committed too (asserted
	// on the counting run, so the matrix provably covers every step of
	// the rewrite's carry-forward).
	carried bool
	// tuneReorganized records whether the Tune pass at the end of the
	// workload actually committed a re-layout (asserted on the
	// fault-free counting run, so the matrix provably covers the commit
	// points of a Tune-initiated reorganize).
	tuneReorganized bool
	// multiArraysCreated is set once the two extra member arrays ("P",
	// "Q") of the cross-array batch both committed their CreateArray.
	multiArraysCreated bool
	// pendingMulti describes an interrupted InsertMulti spanning M, P,
	// and Q: array name -> the content its single member would hold.
	// The batch shares ONE manifest commit, so after recovery either
	// every array shows its member or none does. pendingMultiID is the
	// id M's member would get (P's and Q's members are their version 1).
	pendingMulti   map[string]*array.Dense
	pendingMultiID int
	// multiDone holds P's and Q's committed member content once the
	// cross-array batch succeeded (M's member moves into content).
	multiDone map[string]*array.Dense
}

// midBuildFS fires a callback, once, at the first append into a
// rewrite's build directory — inside the build, before the rewrite has
// taken any write latch.
type midBuildFS struct {
	fsio.FS
	fire atomic.Pointer[func()]
}

func (m *midBuildFS) Append(path string) (fsio.File, error) {
	if isBuildDir(filepath.Dir(path)) {
		if f := m.fire.Swap(nil); f != nil {
			(*f)()
		}
	}
	return m.FS.Append(path)
}

// reorganizeBeside runs a Reorganize during whose build insert runs
// and commits, returning insert's error first.
func reorganizeBeside(s *Store, mb *midBuildFS, name string, insert func() error) error {
	var insErr error
	fire := func() { insErr = insert() }
	mb.fire.Store(&fire)
	err := s.Reorganize(name, ReorganizeOptions{Policy: PolicyAlgorithm2})
	mb.fire.Store(nil)
	if insErr != nil {
		return insErr
	}
	return err
}

func durableOpts(fs fsio.FS) Options {
	o := smallOpts()
	o.ChunkBytes = 1 << 10 // several chunks even at side 16
	o.Durability = true
	o.FS = fs
	o.Parallelism = 1 // deterministic step ordering for the matrix
	return o
}

// matrixRotateBytes is the manifest log size at which a fault matrix's
// store rotates: every few KB, so snapshot rotation and the CURRENT flip
// are crash/fault points of the matrices, not just the steady-state
// append.
const matrixRotateBytes = 8 << 10

// matrixStore readies a store just opened with durableOpts for a fault
// matrix: pinned commit timestamps and a log that rotates every
// matrixRotateBytes.
func matrixStore(s *Store) {
	pinClock(s)
	rotateAt(s, matrixRotateBytes)
}

// pinClock makes commit timestamps constant so every matrix run writes
// byte-identical metadata documents: RFC3339Nano timestamps vary in
// encoded length, which would shift the manifest log's byte count and
// with it the rotation trigger — and therefore the step sequence —
// between the counting run and the per-step runs.
func pinClock(s *Store) {
	// the nanosecond part has no trailing zeros, so the encoded length
	// is the same no matter how the marshaller truncates
	fixed := time.Date(2026, 1, 2, 3, 4, 5, 123456789, time.UTC)
	s.clock = func() time.Time { return fixed }
}

func crashContent(seed, side int64) *array.Dense {
	d := array.MustDense(array.Int32, []int64{side, side})
	for i := int64(0); i < d.NumCells(); i++ {
		d.SetBits(i, (i*7+seed*131)%1000)
	}
	return d
}

// runCrashWorkload drives the workload until completion or the first
// error; mb is the store's filesystem. compacted runs a Compact after
// the first two inserts, so the rest of the workload appends to the data
// log it built in chunk-column order. It returns the model of
// committed state; on error the model's pending fields describe the
// interrupted operation.
func runCrashWorkload(s *Store, mb *midBuildFS, side int64, compacted bool) (*crashModel, error) {
	m := &crashModel{content: map[int]*array.Dense{}}
	if err := s.CreateArray(schema2D("M", side)); err != nil {
		return m, err
	}

	insert := func(seed int64) error {
		content := crashContent(seed, side)
		m.pendingID = nextLiveID(m)
		m.pendingContent = content
		id, err := s.Insert("M", DensePayload(content))
		if err != nil {
			return err
		}
		m.content[id] = content
		m.pendingID, m.pendingContent = 0, nil
		return nil
	}

	if err := insert(1); err != nil {
		return m, err
	}
	if err := insert(2); err != nil {
		return m, err
	}
	if compacted {
		if err := s.Compact("M"); err != nil {
			return m, err
		}
	}
	// delta-list update off version 1
	{
		updates := []CellUpdate{
			{Coords: []int64{0, 0}, Bits: 4242},
			{Coords: []int64{side - 1, side - 1}, Bits: 7},
		}
		want := m.content[1].Clone()
		for _, u := range updates {
			want.SetBitsAt(u.Coords, u.Bits)
		}
		m.pendingID = nextLiveID(m)
		m.pendingContent = want
		id, err := s.Insert("M", DeltaListPayload(1, updates))
		if err != nil {
			return m, err
		}
		m.content[id] = want
		m.pendingID, m.pendingContent = 0, nil
	}
	if err := insert(3); err != nil {
		return m, err
	}
	// second array: create, fill, and tombstone-delete it so the matrix
	// covers the array-lifecycle commit points too
	if err := s.CreateArray(schema2D("Aux", side)); err != nil {
		return m, err
	}
	if _, err := s.Insert("Aux", DensePayload(crashContent(77, side))); err != nil {
		return m, err
	}
	m.auxInsertOK = true
	m.auxDeleteTry = true
	if err := s.DeleteArray("Aux"); err != nil {
		return m, err
	}
	m.auxDeleteOK = true
	// delete version 2 (children may be delta'ed against it)
	m.pendingDeleted = 2
	if err := s.DeleteVersion("M", 2); err != nil {
		return m, err
	}
	delete(m.content, 2)
	m.pendingDeleted = 0
	// destructive rewrites
	if err := s.Reorganize("M", ReorganizeOptions{Policy: PolicyOptimal}); err != nil {
		return m, err
	}
	if err := insert(4); err != nil {
		return m, err
	}
	if err := s.Compact("M"); err != nil {
		return m, err
	}
	// a Reorganize during whose build one insert commits: its publish
	// carries the new version into the new generation, so every step of
	// the carry-forward — frame append, file fsync, directory sync,
	// rename, record — is a crash point, and the acknowledged insert
	// must read back whichever side of the record the crash lands on
	if err := reorganizeBeside(s, mb, "M", func() error { return insert(10) }); err != nil {
		return m, err
	}
	m.carried = true
	// batched insert through the group-commit path: three versions — a
	// dense payload, a delta-list off version 1, another dense — staged
	// together and published by ONE shared commit, so every fault point
	// of the coalesced fsync schedule and the single metadata rename is
	// in the matrix. Atomicity is all-or-nothing for the whole batch.
	{
		startID := nextLiveID(m)
		deltaWant := m.content[1].Clone()
		updates := []CellUpdate{
			{Coords: []int64{1, 1}, Bits: 31337},
			{Coords: []int64{side - 2, 0}, Bits: -5},
		}
		for _, u := range updates {
			deltaWant.SetBitsAt(u.Coords, u.Bits)
		}
		want := []*array.Dense{crashContent(8, side), deltaWant, crashContent(9, side)}
		m.pendingBatchIDs = []int{startID, startID + 1, startID + 2}
		m.pendingBatchContent = want
		ids, err := writeOne(s, "M", []Payload{
			DensePayload(want[0]),
			DeltaListPayload(1, updates),
			DensePayload(want[2]),
		})
		if err != nil {
			return m, err
		}
		for i, id := range ids {
			m.content[id] = want[i]
		}
		m.pendingBatchIDs, m.pendingBatchContent = nil, nil
	}
	// cross-array atomic batch: three arrays (M plus two fresh ones)
	// land one member each under ONE manifest record batch and ONE
	// fsync — the commit the per-array protocol could not express. The
	// matrix must prove all-or-nothing visibility at every fault point
	// of append → fsync → install, including across reopen+replay.
	if err := s.CreateArray(schema2D("P", side)); err != nil {
		return m, err
	}
	if err := s.CreateArray(schema2D("Q", side)); err != nil {
		return m, err
	}
	m.multiArraysCreated = true
	{
		m.pendingMultiID = nextLiveID(m)
		m.pendingMulti = map[string]*array.Dense{
			"M": crashContent(21, side),
			"P": crashContent(22, side),
			"Q": crashContent(23, side),
		}
		out, err := s.InsertMulti([]MultiInsert{
			{Array: "M", Payloads: []Payload{DensePayload(m.pendingMulti["M"])}},
			{Array: "P", Payloads: []Payload{DensePayload(m.pendingMulti["P"])}},
			{Array: "Q", Payloads: []Payload{DensePayload(m.pendingMulti["Q"])}},
		})
		if err != nil {
			return m, err
		}
		m.content[out["M"][0]] = m.pendingMulti["M"]
		m.multiDone = map[string]*array.Dense{"P": m.pendingMulti["P"], "Q": m.pendingMulti["Q"]}
		m.pendingMulti, m.pendingMultiID = nil, 0
	}
	if err := insert(5); err != nil {
		return m, err
	}
	// Tune: put the array in the linear baseline and hand Tune a
	// hot-old-version workload, whose savings clear the 10% guard. Its
	// workload-aware rewrite commits through the same generation
	// protocol, so every write/sync/rename inside the Tune-initiated
	// reorganize becomes a crash point of the matrix.
	if err := s.Reorganize("M", ReorganizeOptions{Policy: PolicyLinearChain}); err != nil {
		return m, err
	}
	rep, err := s.Tune("M", []layout.Query{layout.Snapshot(1, 9), layout.Snapshot(4, 1)})
	if err != nil {
		return m, err
	}
	m.tuneReorganized = rep.Reorganized
	// one final insert so a crash injected at the rewrite's post-commit
	// cleanup steps (whose errors are deliberately swallowed) still
	// surfaces through a later failing operation
	if err := insert(6); err != nil {
		return m, err
	}
	return m, nil
}

func batchContains(pos map[int]int, id int) bool {
	_, ok := pos[id]
	return ok
}

// nextLiveID predicts the id the next insert will be assigned (version
// ids are never reused, so it is one past everything ever inserted).
func nextLiveID(m *crashModel) int {
	max := 0
	for id := range m.content {
		if id > max {
			max = id
		}
	}
	if m.pendingID > max {
		max = m.pendingID
	}
	return max + 1
}

func TestCrashPointMatrix(t *testing.T) {
	const side = 16
	// coLocate=true is the compacted layout: a log in chunk-column order,
	// then written frames
	for _, compacted := range []bool{true, false} {
		t.Run(fmt.Sprintf("coLocate=%v", compacted), func(t *testing.T) {
			// pass 1: count the total number of mutation steps
			counter := fsio.NewFault(0)
			mb := &midBuildFS{FS: counter}
			s, err := Open(t.TempDir(), durableOpts(mb))
			if err != nil {
				t.Fatal(err)
			}
			matrixStore(s)
			model, err := runCrashWorkload(s, mb, side, compacted)
			if err != nil {
				t.Fatalf("counting run failed: %v", err)
			}
			if !model.carried {
				t.Fatal("no insert committed inside a Reorganize's build; the matrix would not cover the carry-forward")
			}
			if !model.tuneReorganized {
				t.Fatal("the Tune pass did not reorganize; the matrix would not cover the commit points of a Tune-initiated reorganize")
			}
			if s.Stats().ManifestRotations == 0 {
				t.Fatal("workload never rotated the manifest log; the matrix would not cover snapshot rotation and the CURRENT flip")
			}
			if gen, err := readCurrent(s.Dir()); err != nil || gen < 2 {
				t.Fatalf("CURRENT names generation %d (%v) after the workload; the matrix would not cover the CURRENT flip", gen, err)
			}
			total := counter.Steps()
			if total < 50 {
				t.Fatalf("workload only has %d fault points; expected a rich matrix", total)
			}
			t.Logf("crash matrix: %d fault injection points", total)

			for n := int64(1); n <= total; n++ {
				fault := fsio.NewFault(n)
				mb := &midBuildFS{FS: fault}
				dir := t.TempDir()
				s, err := Open(dir, durableOpts(mb))
				var m *crashModel
				if err == nil {
					matrixStore(s)
					m, err = runCrashWorkload(s, mb, side, compacted)
				} else {
					m = &crashModel{content: map[int]*array.Dense{}}
				}
				if err == nil {
					t.Fatalf("crash at step %d/%d did not surface", n, total)
				}
				// the crash usually surfaces directly; when it lands inside
				// a deliberately-swallowed step (manifest rotation runs
				// after the commit point, so its failure only poisons the
				// log), the next mutator surfaces the degraded-mode
				// rejection instead — correct containment, same crash
				if !errors.Is(err, fsio.ErrCrashed) &&
					!(errors.Is(err, ErrDegraded) && fault.Crashed()) {
					t.Fatalf("crash at step %d: non-crash error %v", n, err)
				}
				checkRecovered(t, dir, n, m, side)
			}
		})
	}
}

// TestRecoveryReconcilesLostData covers the defense-in-depth path: a
// store written *without* durability crashes in a way that loses
// committed chunk bytes. Recovery must drop the unreadable versions
// (and their delta dependents) rather than serving garbage, and leave a
// store that passes Verify.
func TestRecoveryReconcilesLostData(t *testing.T) {
	const side = 16
	dir := t.TempDir()
	opts := smallOpts()
	opts.ChunkBytes = 1 << 10
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateArray(schema2D("M", side)); err != nil {
		t.Fatal(err)
	}
	v1 := crashContent(1, side)
	if _, err := s.Insert("M", DensePayload(v1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert("M", DensePayload(crashContent(2, side))); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert("M", DensePayload(crashContent(3, side))); err != nil {
		t.Fatal(err)
	}
	// simulate a non-durable crash: cut the tail off every chunk file,
	// destroying the later versions' frames (v2/v3 are delta chains or
	// appended frames past v1's)
	st := s.arrays["M"]
	sizes, err := chunkFileSizes(st.chunksDir())
	if err != nil {
		t.Fatal(err)
	}
	maxV1 := map[string]int64{}
	for _, chunks := range st.Versions[0].Chunks {
		for _, e := range chunks {
			if end := e.Offset + frameLen(e.Length); end > maxV1[e.File] {
				maxV1[e.File] = end
			}
		}
	}
	for name, size := range sizes {
		cut := maxV1[name] // keep only v1's frames (plus a torn byte)
		if cut < size {
			if err := fsio.OS.Truncate(st.chunksDir()+"/"+name, cut+1); err != nil {
				t.Fatal(err)
			}
		}
	}

	ropts := opts
	ropts.Durability = true
	r, err := Open(dir, ropts)
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	if got := r.Recovery().DroppedVersions; got != 2 {
		t.Fatalf("recovery dropped %d versions, want 2", got)
	}
	rep, err := r.Verify("M")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("reconciled store fails verify: %v", rep.Problems)
	}
	got, err := r.Select("M", 1)
	if err != nil {
		t.Fatalf("surviving version unreadable: %v", err)
	}
	if !got.Dense.Equal(v1) {
		t.Fatal("surviving version corrupted")
	}
}

// checkRecovered reopens a crashed store with recovery and asserts the
// durability contract.
func checkRecovered(t *testing.T, dir string, step int64, m *crashModel, side int64) {
	t.Helper()
	s, err := Open(dir, durableOpts(fsio.OS))
	if err != nil {
		t.Fatalf("step %d: reopen after crash: %v", step, err)
	}
	rotateAt(s, matrixRotateBytes)
	if got := s.Recovery().DroppedVersions; got != 0 {
		t.Fatalf("step %d: recovery dropped %d committed versions", step, got)
	}
	arrays := map[string]bool{}
	for _, n := range s.ListArrays() {
		arrays[n] = true
	}
	// the Aux array's lifecycle must be atomic: a committed DeleteArray
	// can never resurrect it, a committed insert can only vanish with a
	// committed (or in-flight) delete, and whatever survives verifies
	switch {
	case m.auxDeleteOK && arrays["Aux"]:
		t.Fatalf("step %d: deleted array resurrected after recovery", step)
	case m.auxInsertOK && !m.auxDeleteTry && !arrays["Aux"]:
		t.Fatalf("step %d: array with committed data vanished", step)
	case arrays["Aux"]:
		rep, err := s.Verify("Aux")
		if err != nil {
			t.Fatalf("step %d: verify Aux: %v", step, err)
		}
		if !rep.Ok() {
			t.Fatalf("step %d: recovered Aux fails verify: %v", step, rep.Problems)
		}
		infos, err := versionsOf(s, "Aux")
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		for _, vi := range infos {
			got, err := s.Select("Aux", vi.ID)
			if err != nil || !got.Dense.Equal(crashContent(77, side)) {
				t.Fatalf("step %d: Aux version %d wrong after recovery (%v)", step, vi.ID, err)
			}
		}
	}
	// the cross-array batch's member arrays: once both CreateArrays
	// committed they can never vanish, and whatever member version
	// survives must verify and read back byte-identical
	memberVersion := func(name string) (*array.Dense, bool) {
		if !arrays[name] {
			if m.multiArraysCreated {
				t.Fatalf("step %d: committed array %s vanished", step, name)
			}
			return nil, false
		}
		rep, err := s.Verify(name)
		if err != nil {
			t.Fatalf("step %d: verify %s: %v", step, name, err)
		}
		if !rep.Ok() {
			t.Fatalf("step %d: recovered %s fails verify: %v", step, name, rep.Problems)
		}
		infos, err := versionsOf(s, name)
		if err != nil {
			t.Fatalf("step %d: versions %s: %v", step, name, err)
		}
		switch len(infos) {
		case 0:
			return nil, false
		case 1:
			got, err := s.Select(name, infos[0].ID)
			if err != nil {
				t.Fatalf("step %d: %s member unreadable: %v", step, name, err)
			}
			return got.Dense, true
		default:
			t.Fatalf("step %d: %s has %d versions, want at most 1", step, name, len(infos))
			return nil, false
		}
	}
	pGot, pIn := memberVersion("P")
	qGot, qIn := memberVersion("Q")
	switch {
	case m.multiDone != nil:
		// the batch committed: every member must be present
		if !pIn || !qIn {
			t.Fatalf("step %d: committed InsertMulti lost members (P=%v Q=%v)", step, pIn, qIn)
		}
		if !pGot.Equal(m.multiDone["P"]) || !qGot.Equal(m.multiDone["Q"]) {
			t.Fatalf("step %d: committed InsertMulti members corrupted", step)
		}
	case m.pendingMulti != nil:
		// interrupted mid-commit: all-or-nothing across all three arrays
		mIn := false
		if arrays["M"] {
			infos, err := versionsOf(s, "M")
			if err != nil {
				t.Fatalf("step %d: versions M: %v", step, err)
			}
			for _, vi := range infos {
				if vi.ID == m.pendingMultiID {
					mIn = true
				}
			}
		}
		if pIn != qIn || pIn != mIn {
			t.Fatalf("step %d: interrupted InsertMulti committed partially (M=%v P=%v Q=%v)", step, mIn, pIn, qIn)
		}
		if pIn {
			if !pGot.Equal(m.pendingMulti["P"]) || !qGot.Equal(m.pendingMulti["Q"]) {
				t.Fatalf("step %d: maybe-committed InsertMulti members have wrong content", step)
			}
		}
	default:
		if pIn || qIn {
			t.Fatalf("step %d: unexpected version in P/Q before the cross-array batch ran", step)
		}
	}

	if !arrays["M"] {
		// the crash interrupted CreateArray itself
		if len(m.content) != 0 {
			t.Fatalf("step %d: array vanished with %d committed versions", step, len(m.content))
		}
		return
	}
	rep, err := s.Verify("M")
	if err != nil {
		t.Fatalf("step %d: verify: %v", step, err)
	}
	if !rep.Ok() {
		t.Fatalf("step %d: recovered store fails verify: %v", step, rep.Problems)
	}
	infos, err := versionsOf(s, "M")
	if err != nil {
		t.Fatalf("step %d: versions: %v", step, err)
	}
	present := map[int]bool{}
	for _, vi := range infos {
		present[vi.ID] = true
	}
	// every committed version must be present and byte-identical
	for id, want := range m.content {
		if !present[id] {
			t.Fatalf("step %d: committed version %d lost", step, id)
		}
		got, err := s.Select("M", id)
		if err != nil {
			t.Fatalf("step %d: committed version %d unreadable: %v", step, id, err)
		}
		if !got.Dense.Equal(want) {
			t.Fatalf("step %d: committed version %d corrupted", step, id)
		}
		delete(present, id)
	}
	// an interrupted three-payload Write shares one commit: all in or all out,
	// and whatever is in must be byte-identical
	batchPos := map[int]int{}
	for i, id := range m.pendingBatchIDs {
		batchPos[id] = i
	}
	batchPresent := 0
	for _, id := range m.pendingBatchIDs {
		if present[id] {
			batchPresent++
		}
	}
	if batchPresent != 0 && batchPresent != len(m.pendingBatchIDs) {
		t.Fatalf("step %d: interrupted batch Write committed partially (%d of %d members)",
			step, batchPresent, len(m.pendingBatchIDs))
	}
	// the interrupted op must be atomically in or out
	for id := range present {
		switch {
		case m.pendingBatchContent != nil && present[id] && batchContains(batchPos, id):
			got, err := s.Select("M", id)
			if err != nil {
				t.Fatalf("step %d: maybe-committed batch member %d unreadable: %v", step, id, err)
			}
			if !got.Dense.Equal(m.pendingBatchContent[batchPos[id]]) {
				t.Fatalf("step %d: maybe-committed batch member %d has wrong content", step, id)
			}
		case id == m.pendingID && m.pendingContent != nil:
			got, err := s.Select("M", id)
			if err != nil {
				t.Fatalf("step %d: maybe-committed version %d unreadable: %v", step, id, err)
			}
			if !got.Dense.Equal(m.pendingContent) {
				t.Fatalf("step %d: maybe-committed version %d has wrong content", step, id)
			}
		case id == m.pendingMultiID && m.pendingMulti != nil:
			got, err := s.Select("M", id)
			if err != nil {
				t.Fatalf("step %d: maybe-committed multi member %d unreadable: %v", step, id, err)
			}
			if !got.Dense.Equal(m.pendingMulti["M"]) {
				t.Fatalf("step %d: maybe-committed multi member %d has wrong content", step, id)
			}
		case id == m.pendingDeleted:
			// an interrupted DeleteVersion left the version live; it must
			// still read back as it did before the delete
			got, err := s.Select("M", id)
			if err != nil {
				t.Fatalf("step %d: undeleted version %d unreadable: %v", step, id, err)
			}
			if !got.Dense.Equal(crashContent(int64(id), side)) {
				t.Fatalf("step %d: undeleted version %d corrupted", step, id)
			}
		default:
			t.Fatalf("step %d: unexpected version %d in recovered store", step, id)
		}
	}
	// the recovered store must be fully writable again
	if _, err := s.Insert("M", DensePayload(crashContent(99, side))); err != nil {
		t.Fatalf("step %d: insert after recovery: %v", step, err)
	}
}
