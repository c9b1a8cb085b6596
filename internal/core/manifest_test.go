package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"arrayvers/internal/array"
	"arrayvers/internal/fsio"
)

// Tests for the store-wide manifest commit log: replay across reopen,
// snapshot rotation, the cross-array Write commit, append-failure
// poisoning and heal, deep verification, hostile append records, the
// size of a write's record, and the refusal of every other on-disk
// format.

// checkContents asserts every expected version reads back
// byte-identical (version ids are 1-based insertion order here).
func checkContents(t *testing.T, s *Store, want map[string][]*array.Dense, label string) {
	t.Helper()
	for name, versions := range want {
		infos, err := versionsOf(s, name)
		if err != nil {
			t.Fatalf("%s: Versions(%s): %v", label, name, err)
		}
		if len(infos) != len(versions) {
			t.Fatalf("%s: %s has %d versions, want %d", label, name, len(infos), len(versions))
		}
		for i, c := range versions {
			got, err := s.Select(name, i+1)
			if err != nil {
				t.Fatalf("%s: %s@%d unreadable: %v", label, name, i+1, err)
			}
			if !got.Dense.Equal(c) {
				t.Fatalf("%s: %s@%d not byte-identical", label, name, i+1)
			}
		}
	}
}

// TestManifestReplayAcrossReopen pins the basic replay contract: every
// commit made through the manifest is visible after reopen (durable
// and non-durable), and the chain deep-verifies clean.
func TestManifestReplayAcrossReopen(t *testing.T) {
	const side = 8
	dir := t.TempDir()
	opts := smallOpts()
	opts.ChunkBytes = 1 << 10
	opts.Durability = true
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]*array.Dense{}
	for _, name := range []string{"R1", "R2", "R3"} {
		if err := s.CreateArray(schema2D(name, side)); err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 4; seed++ {
			c := crashContent(seed+int64(len(want)), side)
			if _, err := s.Insert(name, DensePayload(c)); err != nil {
				t.Fatal(err)
			}
			want[name] = append(want[name], c)
		}
	}
	// a deletion must replay too
	if err := s.CreateArray(schema2D("Doomed", side)); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteArray("Doomed"); err != nil {
		t.Fatal(err)
	}
	rep, err := s.VerifyManifest()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("live manifest fails deep verify: %+v", rep)
	}
	if rep.Arrays != 3 || rep.LogRecords == 0 {
		t.Fatalf("unexpected manifest shape: %+v", rep)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	for _, durable := range []bool{false, true} {
		ropts := opts
		ropts.Durability = durable
		r, err := Open(dir, ropts)
		if err != nil {
			t.Fatalf("reopen durable=%v: %v", durable, err)
		}
		checkContents(t, r, want, fmt.Sprintf("reopen durable=%v", durable))
		if _, ok := r.arrays["Doomed"]; ok {
			t.Fatalf("reopen durable=%v resurrected a dropped array", durable)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// rotateAt sets the manifest log size at which s rotates to n bytes
// (defaultManifestRotateBytes at Open; <0 never rotates), so a short
// workload reaches a rotation.
func rotateAt(s *Store, n int64) {
	s.man.mu.Lock()
	s.man.rotateAt = n
	s.man.mu.Unlock()
}

// TestManifestRotation forces snapshot rotations with a tiny log
// threshold and asserts the chain survives them: one live generation,
// superseded files swept on durable reopen, every commit replayed.
func TestManifestRotation(t *testing.T) {
	const side = 8
	dir := t.TempDir()
	opts := smallOpts()
	opts.ChunkBytes = 1 << 10
	opts.Durability = true
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	rotateAt(s, 2<<10)
	if err := s.CreateArray(schema2D("Rot", side)); err != nil {
		t.Fatal(err)
	}
	var want []*array.Dense
	for seed := int64(1); seed <= 20; seed++ {
		c := crashContent(seed, side)
		if _, err := s.Insert("Rot", DensePayload(c)); err != nil {
			t.Fatal(err)
		}
		want = append(want, c)
	}
	if got := s.Stats().ManifestRotations; got == 0 {
		t.Fatal("20 commits at a 2 KB threshold never rotated the log")
	}
	gen := s.man.gen
	if gen < 2 {
		t.Fatalf("generation still %d after rotations", gen)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("reopen after rotations: %v", err)
	}
	checkContents(t, r, map[string][]*array.Dense{"Rot": want}, "post-rotation reopen")
	rep, err := r.VerifyManifest()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("rotated manifest fails deep verify: %+v", rep)
	}
	if len(rep.StrayFiles) != 0 {
		t.Fatalf("durable reopen left manifest strays: %v", rep.StrayFiles)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestInsertMultiBasic pins a cross-array Write: ids per put in put
// order and payload order, visible immediately and after reopen, one
// manifest fsync for the whole write.
func TestInsertMultiBasic(t *testing.T) {
	const side = 8
	dir := t.TempDir()
	opts := smallOpts()
	opts.ChunkBytes = 1 << 10
	opts.Durability = true
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"A", "B", "C"} {
		if err := s.CreateArray(schema2D(name, side)); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Stats()
	contents := map[string][]*array.Dense{
		"A": {crashContent(1, side), crashContent(2, side)},
		"B": {crashContent(3, side)},
		"C": {crashContent(4, side)},
	}
	out, err := s.Write(context.Background(), []MultiInsert{
		{Array: "C", Payloads: []Payload{DensePayload(contents["C"][0])}},
		{Array: "A", Payloads: []Payload{DensePayload(contents["A"][0]), DensePayload(contents["A"][1])}},
		{Array: "B", Payloads: []Payload{DensePayload(contents["B"][0])}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(out) != "[[1] [1 2] [1]]" {
		t.Fatalf("ids %v, want [[1] [1 2] [1]] in put order", out)
	}
	st := s.Stats()
	if got := st.ManifestFsyncs - before.ManifestFsyncs; got != 1 {
		t.Fatalf("cross-array batch paid %d manifest fsyncs, want exactly 1", got)
	}
	// the whole cross-array batch is ONE commit record (with one op per
	// member array) and one physical append
	if got := st.ManifestRecords - before.ManifestRecords; got != 1 {
		t.Fatalf("cross-array batch paid %d commit records, want exactly 1", got)
	}
	if got := st.ManifestAppends - before.ManifestAppends; got != 1 {
		t.Fatalf("cross-array batch paid %d appends, want exactly 1", got)
	}
	checkContents(t, s, contents, "live")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkContents(t, r, contents, "reopen")
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// validation errors
	if _, err := r.Write(context.Background(), nil); err == nil {
		t.Fatal("empty Write accepted")
	}
	if _, err := r.Write(context.Background(), []MultiInsert{{Array: "A"}}); err == nil {
		t.Fatal("put without payloads accepted")
	}
	if _, err := r.Write(context.Background(), []MultiInsert{
		{Array: "A", Payloads: []Payload{DensePayload(crashContent(9, side))}},
		{Array: "A", Payloads: []Payload{DensePayload(crashContent(9, side))}},
	}); err == nil {
		t.Fatal("duplicate array name accepted")
	}
}

// manifestWriteFaultFS wraps a base FS and, while armed, fails the
// Write of any file opened for append under a MANIFEST-*.log name —
// the one failure mode that is genuinely uncertain (the record may be
// partially durable), which open-level fakes like fsio.Flaky cannot
// reach without also faulting the benign staging writes first.
type manifestWriteFaultFS struct {
	fsio.FS
	mu    sync.Mutex
	armed bool
}

func (f *manifestWriteFaultFS) arm(on bool) {
	f.mu.Lock()
	f.armed = on
	f.mu.Unlock()
}

func (f *manifestWriteFaultFS) hot() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.armed
}

func (f *manifestWriteFaultFS) Append(path string) (fsio.File, error) {
	file, err := f.FS.Append(path)
	base := filepath.Base(path)
	if err != nil || !strings.HasPrefix(base, manifestPrefix) || !strings.HasSuffix(base, ".log") {
		return file, err
	}
	return &manifestWriteFaultFile{File: file, fs: f}, nil
}

type manifestWriteFaultFile struct {
	fsio.File
	fs *manifestWriteFaultFS
}

func (fl *manifestWriteFaultFile) Write(p []byte) (int, error) {
	if fl.fs.hot() {
		return 0, fsio.ErrIO
	}
	return fl.File.Write(p)
}

// TestManifestAppendFailureDegradesAndHeals: a failed log-append WRITE
// is an uncertain commit (the record may be partially durable), so the store
// must refuse further writes until Heal truncates the log back to its
// last known-good offset and re-verifies.
func TestManifestAppendFailureDegradesAndHeals(t *testing.T) {
	const side = 8
	ffs := &manifestWriteFaultFS{FS: fsio.OS}
	opts := smallOpts()
	opts.ChunkBytes = 1 << 10
	opts.Durability = true
	opts.FS = ffs
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.stopHealer() // heal explicitly, not from the background prober
	if err := s.CreateArray(schema2D("H", side)); err != nil {
		t.Fatal(err)
	}
	good := crashContent(1, side)
	if _, err := s.Insert("H", DensePayload(good)); err != nil {
		t.Fatal(err)
	}

	// fail exactly the manifest log append: staging succeeds, the
	// commit point does not, and the outcome is uncertain
	ffs.arm(true)
	if _, err := s.Insert("H", DensePayload(crashContent(2, side))); err == nil {
		t.Fatal("insert with a failing manifest append succeeded")
	}
	if h := s.Health(); !h.Degraded || !h.StoreDegraded {
		t.Fatalf("store not degraded after uncertain manifest append: %+v", h)
	}
	if _, err := s.Insert("H", DensePayload(crashContent(2, side))); !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded insert error = %v, want ErrDegraded", err)
	}
	// committed state keeps reading
	got, err := s.Select("H", 1)
	if err != nil || !got.Dense.Equal(good) {
		t.Fatalf("degraded read broken: %v", err)
	}

	ffs.arm(false)
	if _, err := s.Heal(); err != nil {
		t.Fatalf("Heal after disk recovery: %v", err)
	}
	if h := s.Health(); h.Degraded {
		t.Fatalf("still degraded after Heal: %+v", h)
	}
	next := crashContent(3, side)
	id, err := s.Insert("H", DensePayload(next))
	if err != nil {
		t.Fatalf("insert after heal: %v", err)
	}
	got, err = s.Select("H", id)
	if err != nil || !got.Dense.Equal(next) {
		t.Fatalf("post-heal version unreadable: %v", err)
	}
	rep, err := s.VerifyManifest()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("healed manifest fails deep verify: %+v", rep)
	}
}

// FuzzManifestReplay feeds hostile bytes to the manifest replay as the
// three files it reads — CURRENT, the live generation's snapshot and its
// log — and requires an error or a well-formed state, never a panic or
// an allocation the bytes cannot back. Seeds are the files of a real
// store after inserts, a rotation and a drop, that store's files with
// each of hostileAppends in its log or snapshot, and its files under a
// CURRENT of format 2 and under one without a format key.
func FuzzManifestReplay(f *testing.F) {
	dir := f.TempDir()
	opts := smallOpts()
	opts.Durability = true
	s, err := Open(dir, opts)
	if err != nil {
		f.Fatal(err)
	}
	rotateAt(s, 2<<10)
	var files [3][]byte // CURRENT, snapshot, log of the last seed
	seed := func() {
		gen, err := readCurrent(dir)
		if err != nil {
			f.Fatal(err)
		}
		for i, name := range []string{currentFile, manifestSnapName(gen), manifestLogName(gen)} {
			if files[i], err = os.ReadFile(filepath.Join(dir, name)); err != nil && !errors.Is(err, os.ErrNotExist) {
				f.Fatal(err)
			}
		}
		f.Add(files[0], files[1], files[2])
	}
	for _, name := range []string{"Keep", "Drop"} {
		if err := s.CreateArray(schema2D(name, 8)); err != nil {
			f.Fatal(err)
		}
	}
	seed()
	// an insert's record is ~290 bytes: the sixth rotates the log, and
	// the last two leave their appends in the live one
	for i := int64(1); i <= 8; i++ {
		if _, err := s.Insert("Keep", DensePayload(crashContent(i, 8))); err != nil {
			f.Fatal(err)
		}
	}
	if s.Stats().ManifestRotations == 0 {
		f.Fatal("the seed store never rotated its manifest")
	}
	if err := s.DeleteArray("Drop"); err != nil {
		f.Fatal(err)
	}
	seed()
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	// the live log holds the last inserts' appends; seed it with each
	// hostile append as one more record (or in the snapshot)
	recs := logRecords(f, files[2])
	for _, h := range hostileAppends(lastAppend(f, recs)) {
		snap, log := h.files(f, files[1], files[2], recs[len(recs)-1].Seq+1)
		f.Add(files[0], snap, log)
	}
	// the same files under a CURRENT of another format, and under one
	// without a format key (written before the number: format 1)
	gen, err := readCurrent(dir)
	if err != nil {
		f.Fatal(err)
	}
	for _, current := range []string{`{"gen":%d,"format":2}`, `{"gen":%d}`} {
		f.Add([]byte(fmt.Sprintf(current+"\n", gen)), files[1], files[2])
	}

	f.Fuzz(func(t *testing.T, current, snap, log []byte) {
		dir := t.TempDir()
		gen := 1
		write := func(name string, data []byte) {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		write(currentFile, current)
		if g, err := readCurrent(dir); err == nil && g < 1e6 {
			gen = g
		}
		write(manifestSnapName(gen), snap)
		write(manifestLogName(gen), log)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := replayManifest(dir)
		runtime.ReadMemStats(&after)
		if limit := uint64(64*(len(current)+len(snap)+len(log))) + 1<<20; after.TotalAlloc-before.TotalAlloc > limit {
			t.Fatalf("replay of %d bytes allocated %d", len(current)+len(snap)+len(log), after.TotalAlloc-before.TotalAlloc)
		}
		if err != nil {
			return
		}
		if r.validOff+r.tornBytes != int64(len(log)) || r.records != r.lastSeq-r.snapSeq {
			t.Fatalf("inconsistent replay: %+v over a %d-byte log", r, len(log))
		}
		for name, m := range r.state {
			if m == nil || m.Schema.Validate() != nil {
				t.Fatalf("replayed array %q has no valid document", name)
			}
		}
	})
}

// logRecords decodes every complete record of a manifest log.
func logRecords(t testing.TB, log []byte) []manifestRecord {
	t.Helper()
	var recs []manifestRecord
	for off := int64(0); off < int64(len(log)); {
		payload, size, ok := scanManifestFrame(log[off:])
		if !ok {
			break
		}
		var rec manifestRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
		off += size
	}
	return recs
}

// lastAppend returns the last write's append op in recs.
func lastAppend(t testing.TB, recs []manifestRecord) manifestOp {
	t.Helper()
	for i := len(recs) - 1; i >= 0; i-- {
		for _, op := range recs[i].Ops {
			if op.Add != nil {
				return op
			}
		}
	}
	t.Fatal("the log holds no append record")
	return manifestOp{}
}

// hostileAppend is one append op replay must reject: want is a
// fragment of the error, which also names the record (or, inSnap, the
// snapshot) holding it. want "" marks the control case, a valid next
// append that must replay clean.
type hostileAppend struct {
	label, want string
	inSnap      bool
	op          manifestOp
}

// hostileAppends derives, from a committed write's append op, the
// append records replay must reject — each otherwise a valid next
// append.
func hostileAppends(good manifestOp) []hostileAppend {
	next := func(mut func(op *manifestOp)) manifestOp {
		add := *good.Add
		vm := *add.Versions[len(add.Versions)-1]
		vm.ID = add.NextID
		add.Versions = []*versionMeta{&vm}
		add.NextID++
		op := manifestOp{Name: good.Name, Add: &add}
		if mut != nil {
			mut(&op)
		}
		return op
	}
	return []hostileAppend{
		{label: "valid", op: next(nil)},
		{label: "absent array", want: "append to an absent array", op: next(func(op *manifestOp) { op.Name = "Absent" })},
		{label: "gen mismatch", want: "chunk generation", op: next(func(op *manifestOp) { op.Add.Gen++ })},
		{label: "replayed twice", want: "is not above", op: good},
		{label: "id at nextId", want: "is not below nextId", op: next(func(op *manifestOp) { op.Add.NextID-- })},
		{label: "nil version", want: "nil version", op: next(func(op *manifestOp) { op.Add.Versions = []*versionMeta{nil} })},
		{label: "document and append", want: "both a document and an append", op: next(func(op *manifestOp) { op.Meta = &arrayMeta{} })},
		{label: "in a snapshot", want: "append op inside a snapshot", inSnap: true, op: next(nil)},
	}
}

// files returns the snapshot and log bytes that carry h: a snapshot
// with h's op added, or the log with one more record at seq.
func (h hostileAppend) files(t testing.TB, snap, log []byte, seq int64) ([]byte, []byte) {
	t.Helper()
	if h.inSnap {
		payload, _, ok := scanManifestFrame(snap)
		if !ok {
			t.Fatal("corrupt seed snapshot")
		}
		var sn manifestSnapshot
		if err := json.Unmarshal(payload, &sn); err != nil {
			t.Fatal(err)
		}
		sn.Arrays = append(sn.Arrays, h.op)
		raw, err := json.Marshal(&sn)
		if err != nil {
			t.Fatal(err)
		}
		return appendFrame(nil, raw), log
	}
	raw, err := json.Marshal(&manifestRecord{Seq: seq, Ops: []manifestOp{h.op}})
	if err != nil {
		t.Fatal(err)
	}
	return snap, appendFrame(bytes.Clone(log), raw)
}

// TestReplayRejectsHostileAppends feeds replay append records that do
// not fit the document they append to — an absent array, a generation
// mismatch, ids not above the replayed ones or not below nextId, a nil
// version, an op with both forms, an append inside a snapshot — and
// requires an error naming the record, reported by VerifyManifest under
// Problems, never a panic.
func TestReplayRejectsHostileAppends(t *testing.T) {
	dir := t.TempDir()
	opts := smallOpts()
	opts.Durability = true
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rotateAt(s, -1)
	if err := s.CreateArray(schema2D("A", 8)); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 2; i++ {
		if _, err := s.Insert("A", DensePayload(crashContent(i, 8))); err != nil {
			t.Fatal(err)
		}
	}
	snapPath := filepath.Join(dir, manifestSnapName(s.man.gen))
	logPath := filepath.Join(dir, manifestLogName(s.man.gen))
	snap, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	recs := logRecords(t, log)
	seq := recs[len(recs)-1].Seq + 1
	write := func(snap, log []byte) {
		t.Helper()
		if err := os.WriteFile(snapPath, snap, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(logPath, log, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range hostileAppends(lastAppend(t, recs)) {
		t.Run(h.label, func(t *testing.T) {
			defer write(snap, log)
			write(h.files(t, snap, log, seq))
			rep, err := s.VerifyManifest()
			if err != nil {
				t.Fatal(err)
			}
			if h.want == "" {
				if !rep.Ok() || rep.LastSeq != seq {
					t.Fatalf("a valid append does not replay: %+v", rep)
				}
				return
			}
			where := fmt.Sprintf("record %d", seq)
			if h.inSnap {
				where = manifestSnapName(s.man.gen)
			}
			if len(rep.Problems) != 1 || !strings.Contains(rep.Problems[0], h.want) || !strings.Contains(rep.Problems[0], where) {
				t.Fatalf("problems %q, want one naming %q with %q", rep.Problems, where, h.want)
			}
		})
	}
	rep, err := s.VerifyManifest()
	if err != nil || !rep.Ok() {
		t.Fatalf("the restored manifest fails deep verify: %v %+v", err, rep)
	}
}

// TestCommitRecordBytesFlat pins what a write commits: the manifest log
// grows by the same number of bytes for a one-version insert into an
// array of 3 versions as into one of 300, since the record carries only
// the new version, not the array's history.
func TestCommitRecordBytesFlat(t *testing.T) {
	const side = 8
	dir := t.TempDir()
	opts := smallOpts()
	opts.Durability = true
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rotateAt(s, -1)
	pinClock(s)
	if err := s.CreateArray(schema2D("F", side)); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, manifestLogName(s.man.gen))
	n := int64(0)
	growth := func() int64 {
		t.Helper()
		before, err := os.Stat(logPath)
		if err != nil {
			t.Fatal(err)
		}
		n++
		if _, err := s.Insert("F", DensePayload(crashContent(n, side))); err != nil {
			t.Fatal(err)
		}
		after, err := os.Stat(logPath)
		if err != nil {
			t.Fatal(err)
		}
		return after.Size() - before.Size()
	}
	for n < 2 {
		growth()
	}
	at3 := growth()
	for n < 299 {
		growth()
	}
	at300 := growth()
	if d := at300 - at3; d < -16 || d > 16 {
		t.Fatalf("an insert's record is %d bytes at 3 versions and %d at 300", at3, at300)
	}
	if s.Stats().ManifestRotations != 0 {
		t.Fatal("the log rotated with rotation off")
	}
}

// copyTree clones the directory src into a fresh temp dir and returns
// the copy's path.
func copyTree(t *testing.T, src string) string {
	t.Helper()
	dst := filepath.Join(t.TempDir(), "store")
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), raw, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// treeDigest maps every file under dir to its bytes, and every
// directory to "/".
func treeDigest(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		if d.IsDir() {
			out[rel] = "/"
			return nil
		}
		raw, err := os.ReadFile(path)
		out[rel] = string(raw)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// formatStore writes a small closed store of two arrays to a fresh dir
// and returns it with the versions each array holds.
func formatStore(t *testing.T) (string, map[string][]*array.Dense) {
	t.Helper()
	dir := t.TempDir()
	opts := smallOpts()
	opts.Durability = true
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]*array.Dense{}
	for i, name := range []string{"Framed", "Raw"} {
		if err := s.CreateArray(schema2D(name, 8)); err != nil {
			t.Fatal(err)
		}
		for _, v := range evolvingVersions(3, 8, int64(40+i)) {
			if _, err := s.Insert(name, DensePayload(v)); err != nil {
				t.Fatal(err)
			}
			want[name] = append(want[name], v)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, want
}

// writeCURRENT replaces dir's CURRENT with raw.
func writeCURRENT(t *testing.T, dir, raw string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, currentFile), []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
}

// unframeRaw commits a generation in which array "Raw" of the store
// in dir says format 0 (unframed chunks), and returns that generation.
func unframeRaw(t *testing.T, dir string) int {
	t.Helper()
	r, err := replayManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	raw := *r.state["Raw"]
	raw.Format = 0
	r.state["Raw"] = &raw
	bare := &Store{dir: dir, fs: fsio.OS, opts: Options{FS: fsio.OS}}
	man := &manifest{s: bare, dir: dir, state: r.state}
	if err := man.writeGeneration(r.gen+1, r.lastSeq); err != nil {
		t.Fatal(err)
	}
	return r.gen + 1
}

// TestOpenRefusesOtherFormat: Open fails with ErrFormat, durable or
// not, on every directory in a format other than storeFormat — and
// leaves it byte-identical, even when its log has a torn tail a
// durable open of a current store would truncate. The error names the
// format found and the one expected. A CURRENT without a format key
// predates the number: it opens as format 1 and reads back unchanged.
func TestOpenRefusesOtherFormat(t *testing.T) {
	cases := []struct {
		name  string
		setup func(t *testing.T) string
		found string
	}{
		{"legacy", func(t *testing.T) string {
			return copyTree(t, filepath.Join("testdata", "legacy", "store"))
		}, "found per-array versions.json, no CURRENT"},
		{"format-2", func(t *testing.T) string {
			dir, _ := formatStore(t)
			gen, err := readCurrent(dir)
			if err != nil {
				t.Fatal(err)
			}
			writeCURRENT(t, dir, fmt.Sprintf(`{"gen":%d,"format":2}`+"\n", gen))
			return dir
		}, "found format 2"},
		{"unframed", func(t *testing.T) string {
			dir, _ := formatStore(t)
			unframeRaw(t, dir)
			return dir
		}, `found format 0: array "Raw" has unframed chunks`},
		{"unframed-torn-tail", func(t *testing.T) string {
			dir, _ := formatStore(t)
			gen := unframeRaw(t, dir)
			f, err := os.OpenFile(filepath.Join(dir, manifestLogName(gen)), os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte("AVC1\x01torn")); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			return dir
		}, `found format 0: array "Raw" has unframed chunks`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := tc.setup(t)
			before := treeDigest(t, dir)
			for _, durable := range []bool{false, true} {
				opts := smallOpts()
				opts.Durability = durable
				s, err := Open(dir, opts)
				if err == nil {
					s.Close()
				}
				if !errors.Is(err, ErrFormat) {
					t.Fatalf("Open(durable=%v) returned %v, want ErrFormat", durable, err)
				}
				if msg := err.Error(); !strings.Contains(msg, tc.found) || !strings.Contains(msg, "want format 1") {
					t.Fatalf("Open(durable=%v): %q does not name %q and format 1", durable, msg, tc.found)
				}
				if after := treeDigest(t, dir); !maps.Equal(after, before) {
					t.Fatalf("Open(durable=%v) changed the directory", durable)
				}
			}
		})
	}
	t.Run("unnumbered", func(t *testing.T) {
		dir, want := formatStore(t)
		gen, err := readCurrent(dir)
		if err != nil {
			t.Fatal(err)
		}
		writeCURRENT(t, dir, fmt.Sprintf(`{"gen":%d}`+"\n", gen))
		for _, durable := range []bool{false, true} {
			opts := smallOpts()
			opts.Durability = durable
			s, err := Open(dir, opts)
			if err != nil {
				t.Fatalf("Open(durable=%v) of an unnumbered CURRENT: %v", durable, err)
			}
			checkContents(t, s, want, fmt.Sprintf("unnumbered, durable=%v", durable))
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})
}
