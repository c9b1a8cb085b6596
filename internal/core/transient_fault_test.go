package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"arrayvers/internal/array"
	"arrayvers/internal/fsio"
)

// The transient-fault matrix, the surviving-process counterpart of the
// crash matrix in crash_test.go: a fixed insert → batch → delete-version
// → reorganize → reorganize-beside-an-insert workload is run once against a counting fsio.Flaky, then
// re-run from scratch once per mutation step with a scripted EIO or
// ENOSPC injected at exactly that step. Unlike a crash, the process
// lives on, so the contract under test is containment: the faulted
// operation reports an error and did not happen (memory-authoritative —
// Heal reconciles the disk to the in-memory commit log), uncertain
// commit failures flip the array into degraded read-only mode, Heal
// makes the store writable again once the disk recovers, and a reopen
// agrees byte-for-byte with what the live store reported.

// transientModel is what the workload committed: live version id ->
// expected content. Ops that returned an error are absent by
// construction.
type transientModel struct {
	created bool
	content map[int]*array.Dense
	// created2/content2 track the second array ("T2"), which receives
	// its versions only through the cross-array InsertMulti path, so
	// the sweep faults every step of the shared manifest commit too.
	created2 bool
	content2 map[int]*array.Dense
	// rewriteGen is T's generation before the Reorganize during whose
	// build an insert commits; rewriteFailed says that Reorganize
	// itself returned an error.
	rewriteGen    int
	rewriteFailed bool
}

// runTransientWorkload drives the fixed workload until completion or
// the first error, updating the model only on success; mb is the
// store's filesystem. compacted runs a Compact after the first two
// inserts, so the rest of the workload appends to the data log it built
// in chunk-column order.
func runTransientWorkload(s *Store, mb *midBuildFS, side int64, compacted bool) (*transientModel, error) {
	m := &transientModel{content: map[int]*array.Dense{}}
	if err := s.CreateArray(schema2D("T", side)); err != nil {
		return m, err
	}
	m.created = true

	insert := func(seed int64) error {
		content := crashContent(seed, side)
		id, err := s.Insert("T", DensePayload(content))
		if err != nil {
			return err
		}
		m.content[id] = content
		return nil
	}
	if err := insert(1); err != nil {
		return m, err
	}
	if err := insert(2); err != nil {
		return m, err
	}
	if compacted {
		if err := s.Compact("T"); err != nil {
			return m, err
		}
	}
	batch := []*array.Dense{crashContent(3, side), crashContent(4, side)}
	ids, err := writeOne(s, "T", []Payload{DensePayload(batch[0]), DensePayload(batch[1])})
	if err != nil {
		return m, err
	}
	for i, id := range ids {
		m.content[id] = batch[i]
	}
	if err := s.DeleteVersion("T", 1); err != nil {
		return m, err
	}
	delete(m.content, 1)
	if err := s.Reorganize("T", ReorganizeOptions{Policy: PolicyLinearChain}); err != nil {
		return m, err
	}
	if err := insert(5); err != nil {
		return m, err
	}
	// a Reorganize during whose build one insert commits, so a fault at
	// any step of the carry-forward fails the rewrite alone
	s.mu.RLock()
	m.rewriteGen = s.arrays["T"].Gen
	s.mu.RUnlock()
	var insErr error
	err = reorganizeBeside(s, mb, "T", func() error {
		insErr = insert(8)
		return insErr
	})
	if err != nil {
		m.rewriteFailed = insErr == nil
		return m, err
	}
	// cross-array atomic batch: T and a fresh T2 land one member each
	// under the manifest's single commit point, so a scripted fault at
	// any step of stage → sync → append → install must contain to "the
	// whole batch did not happen" on BOTH arrays.
	if err := s.CreateArray(schema2D("T2", side)); err != nil {
		return m, err
	}
	m.created2 = true
	multi := map[string]*array.Dense{"T": crashContent(6, side), "T2": crashContent(7, side)}
	out, err := s.InsertMulti([]MultiInsert{
		{Array: "T", Payloads: []Payload{DensePayload(multi["T"])}},
		{Array: "T2", Payloads: []Payload{DensePayload(multi["T2"])}},
	})
	if err != nil {
		return m, err
	}
	m.content[out["T"][0]] = multi["T"]
	m.content2 = map[int]*array.Dense{out["T2"][0]: multi["T2"]}
	return m, nil
}

// checkTransientState asserts the live store agrees with the model:
// exactly the model's versions are live, each reads back
// byte-identical, and Verify passes.
func checkTransientState(t *testing.T, s *Store, m *transientModel, label string) {
	t.Helper()
	if !m.created {
		return
	}
	infos, err := versionsOf(s, "T")
	if err != nil {
		t.Fatalf("%s: Versions: %v", label, err)
	}
	var live []int
	for _, vi := range infos {
		live = append(live, vi.ID)
	}
	var want []int
	for id := range m.content {
		want = append(want, id)
	}
	sort.Ints(live)
	sort.Ints(want)
	if fmt.Sprint(live) != fmt.Sprint(want) {
		t.Fatalf("%s: live versions %v, want %v (no phantom or duplicate versions allowed)", label, live, want)
	}
	for id, content := range m.content {
		got, err := s.Select("T", id)
		if err != nil {
			t.Fatalf("%s: version %d unreadable: %v", label, id, err)
		}
		if !got.Dense.Equal(content) {
			t.Fatalf("%s: version %d corrupted", label, id)
		}
	}
	rep, err := s.Verify("T")
	if err != nil {
		t.Fatalf("%s: Verify: %v", label, err)
	}
	if !rep.Ok() {
		t.Fatalf("%s: Verify problems: %v", label, rep.Problems)
	}
	if !m.created2 {
		return
	}
	infos, err = versionsOf(s, "T2")
	if err != nil {
		t.Fatalf("%s: Versions T2: %v", label, err)
	}
	if len(infos) != len(m.content2) {
		t.Fatalf("%s: T2 has %d versions, want %d (an InsertMulti fault must contain to both arrays)", label, len(infos), len(m.content2))
	}
	for id, content := range m.content2 {
		got, err := s.Select("T2", id)
		if err != nil {
			t.Fatalf("%s: T2 version %d unreadable: %v", label, id, err)
		}
		if !got.Dense.Equal(content) {
			t.Fatalf("%s: T2 version %d corrupted", label, id)
		}
	}
	rep, err = s.Verify("T2")
	if err != nil {
		t.Fatalf("%s: Verify T2: %v", label, err)
	}
	if !rep.Ok() {
		t.Fatalf("%s: Verify T2 problems: %v", label, rep.Problems)
	}
}

// countTransientSteps runs the transient workload fault-free and
// returns its number of mutation steps.
func countTransientSteps(t *testing.T, side int64, compacted bool) int64 {
	t.Helper()
	counting := fsio.NewFlaky(fsio.OS)
	mb := &midBuildFS{FS: counting}
	s, err := Open(t.TempDir(), durableOpts(mb))
	if err != nil {
		t.Fatal(err)
	}
	matrixStore(s)
	s.stopHealer() // heal explicitly, not from the background prober
	model, err := runTransientWorkload(s, mb, side, compacted)
	if err != nil {
		t.Fatalf("counting run failed: %v", err)
	}
	if len(model.content) != 6 {
		t.Fatalf("counting run committed %d versions of T, want 6 (the insert inside the Reorganize's build among them)", len(model.content))
	}
	total := counting.Steps()
	if total < 40 {
		t.Fatalf("workload only has %d fault points; expected a rich matrix", total)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("transient matrix (compacted=%v): %d fault injection points", compacted, total)
	return total
}

func TestTransientFaultSweep(t *testing.T) {
	const side = 8
	// pass 1: count the workload's mutation steps fault-free, per layout
	// (coLocate=true is the compacted one: a log in chunk-column order,
	// then written frames)
	totals := map[bool]int64{}
	for _, compacted := range []bool{true, false} {
		totals[compacted] = countTransientSteps(t, side, compacted)
	}

	for _, inj := range []struct {
		name string
		err  error
	}{
		{"eio", fsio.ErrIO},
		{"enospc", fsio.ErrDiskFull},
	} {
		t.Run(inj.name, func(t *testing.T) {
			for _, compacted := range []bool{true, false} {
				t.Run(fmt.Sprintf("coLocate=%v", compacted), func(t *testing.T) {
					sweepTransientFaults(t, side, totals[compacted], inj.name, inj.err, compacted)
				})
			}
		})
	}
}

// sweepTransientFaults runs the transient workload once per step of its
// total, with injected failing that step, and checks containment.
func sweepTransientFaults(t *testing.T, side, total int64, name string, injected error, compacted bool) {
	rolledBack := 0
	for n := int64(1); n <= total; n++ {
		flaky := fsio.NewFlaky(fsio.OS)
		flaky.FailAt(n, injected)
		mb := &midBuildFS{FS: flaky}
		s, err := Open(t.TempDir(), durableOpts(mb))
		if err != nil {
			// the fault hit store creation itself; nothing to check
			continue
		}
		matrixStore(s)
		s.stopHealer()
		m, werr := runTransientWorkload(s, mb, side, compacted)
		label := fmt.Sprintf("%s step %d/%d", name, n, total)

		// the disk "recovers" now; the store may or may not have
		// degraded depending on where the fault landed
		flaky.Heal()
		if werr != nil {
			if h := s.Health(); h.Degraded {
				// degraded mode must fail writes fast with the
				// typed error until healed — probed against an
				// array that is actually refusing writes (a fault
				// inside InsertMulti may degrade only one member)
				probe := ""
				if h.StoreDegraded && m.created {
					probe = "T"
				}
				for _, ah := range h.Arrays {
					probe = ah.Name
				}
				if probe != "" {
					if _, ierr := s.Insert(probe, DensePayload(crashContent(90, side))); !errors.Is(ierr, ErrDegraded) {
						t.Fatalf("%s: degraded insert to %s error = %v, want ErrDegraded", label, probe, ierr)
					}
				}
				if _, herr := s.Heal(); herr != nil {
					t.Fatalf("%s: Heal after disk recovery: %v", label, herr)
				}
				if h := s.Health(); h.Degraded {
					t.Fatalf("%s: still degraded after Heal: %+v", label, h)
				}
			}
		} else if fl := flaky.Injected(); fl == 0 {
			t.Fatalf("%s: fault never fired (step drift between runs?)", label)
		}
		// an error must mean "did not happen": live state equals
		// the successful prefix exactly
		checkTransientState(t, s, m, label+" (live)")
		if m.rewriteFailed {
			checkRewriteRolledBack(t, s, "T", m.rewriteGen, label)
			rolledBack++
		}
		// and the store must be writable again
		if m.created {
			extra := crashContent(91, side)
			id, err := s.Insert("T", DensePayload(extra))
			if err != nil {
				t.Fatalf("%s: insert after heal: %v", label, err)
			}
			m.content[id] = extra
		}
		if err := s.Close(); err != nil {
			t.Fatalf("%s: close: %v", label, err)
		}
		// reopen on the plain filesystem: recovery must agree
		// with everything the live store reported
		r, err := Open(s.dir, durableOpts(fsio.OS))
		if err != nil {
			t.Fatalf("%s: reopen: %v", label, err)
		}
		rotateAt(r, matrixRotateBytes)
		checkTransientState(t, r, m, label+" (reopen)")
		if err := r.Close(); err != nil {
			t.Fatalf("%s: close reopened: %v", label, err)
		}
	}
	if rolledBack == 0 {
		t.Fatal("no fault failed the Reorganize beside an insert; the sweep would not cover the carry-forward")
	}
}

// checkRewriteRolledBack asserts a failed rewrite left generation gen
// live and no other chunk directory — its build, under either name, is
// gone.
func checkRewriteRolledBack(t *testing.T, s *Store, name string, gen int, label string) {
	t.Helper()
	s.mu.RLock()
	st := s.arrays[name]
	live := st.Gen
	s.mu.RUnlock()
	if live != gen {
		t.Fatalf("%s: failed rewrite moved %s to generation %d, want %d", label, name, live, gen)
	}
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "chunks") && e.Name() != chunksDirName(gen) {
			t.Fatalf("%s: failed rewrite left %s behind", label, filepath.Join(name, e.Name()))
		}
	}
}

// TestDegradedReadsStayUp pins the degraded-mode contract from the read
// side: a store-wide ENOSPC degrade must keep every select form
// working while writes are rejected, and the gauges in Stats must
// track entry and heal.
func TestDegradedReadsStayUp(t *testing.T) {
	const side = 8
	flaky := fsio.NewFlaky(fsio.OS)
	s, err := Open(t.TempDir(), durableOpts(flaky))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rotateAt(s, matrixRotateBytes)
	s.stopHealer()
	if err := s.CreateArray(schema2D("R", side)); err != nil {
		t.Fatal(err)
	}
	content := crashContent(1, side)
	if _, err := s.Insert("R", DensePayload(content)); err != nil {
		t.Fatal(err)
	}

	// full disk: the next write attempt degrades the whole store
	flaky.FailAll(fsio.ErrDiskFull)
	if _, err := s.Insert("R", DensePayload(crashContent(2, side))); err == nil {
		t.Fatal("insert on a full disk succeeded")
	}
	if h := s.Health(); !h.Degraded || !h.StoreDegraded {
		t.Fatalf("store not degraded after ENOSPC: %+v", h)
	}
	if _, err := s.Insert("R", DensePayload(crashContent(2, side))); !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded insert error = %v, want ErrDegraded", err)
	}
	// reads keep answering from the committed state
	got, err := s.Select("R", 1)
	if err != nil || !got.Dense.Equal(content) {
		t.Fatalf("degraded read broken: %v", err)
	}
	st := s.Stats()
	if st.DegradedEntered == 0 || st.StoreDegraded != 1 || st.WritesRejectedDegraded == 0 {
		t.Fatalf("degraded counters not surfaced: %+v", st)
	}

	// Heal fails while the disk is still sick, succeeds after recovery
	if _, err := s.Heal(); err == nil {
		t.Fatal("Heal succeeded on a still-broken disk")
	}
	flaky.Heal()
	if _, err := s.Heal(); err != nil {
		t.Fatalf("Heal after disk recovery: %v", err)
	}
	if h := s.Health(); h.Degraded {
		t.Fatalf("still degraded after Heal: %+v", h)
	}
	st = s.Stats()
	if st.DegradedHealed == 0 || st.StoreDegraded != 0 || st.DegradedArrays != 0 {
		t.Fatalf("heal counters not surfaced: %+v", st)
	}
	if _, err := s.Insert("R", DensePayload(crashContent(3, side))); err != nil {
		t.Fatalf("insert after heal: %v", err)
	}
}

// TestContextCancellation pins the ctx threading contract: a cancelled
// context fails selects and insert staging with the context's error,
// and a cancelled insert never creates a version.
func TestContextCancellation(t *testing.T) {
	s := testStore(t, smallOpts())
	const side = 8
	if err := s.CreateArray(schema2D("C", side)); err != nil {
		t.Fatal(err)
	}
	content := crashContent(1, side)
	if _, err := s.Insert("C", DensePayload(content)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Read(ctx, ReadQuery{Array: "C", IDs: []int{1}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Read error = %v, want context.Canceled", err)
	}
	if _, err := s.Write(ctx, []MultiInsert{{Array: "C", Payloads: []Payload{DensePayload(crashContent(2, side))}}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Write error = %v, want context.Canceled", err)
	}
	infos, err := versionsOf(s, "C")
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 {
		t.Fatalf("cancelled insert created a version: %v", infos)
	}
	// and the live context still works
	if got, err := s.Read(context.Background(), ReadQuery{Array: "C", IDs: []int{1}}); err != nil || !got[0].Dense.Equal(content) {
		t.Fatalf("select after cancellation: %v", err)
	}
}
