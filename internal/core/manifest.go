package core

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
)

// The store-wide manifest log: the one commit protocol.
//
// Every metadata mutation of every array commits by appending one
// checksummed record to a single append-only log at the store root,
// following the LSM-manifest idiom:
//
//	CURRENT            {"gen":N,"format":F} — names the live
//	                   snapshot/log pair and the on-disk format;
//	                   replaced by tmp-write + rename + root sync
//	MANIFEST-N.snap    one AVC1 frame: JSON {seq, arrays} — the full
//	                   store state as of sequence number seq
//	MANIFEST-N.log     AVC1 frames, one per commit: JSON
//	                   {seq, ops:[{name, drop?, meta?, add?}...]}
//
// A log record carries each commit's edit, not the state it leaves:
// a write's op (add) holds the array's header fields and only the
// versions that write staged, and replay appends them to the replayed
// document, so a commit's size does not grow with the array's age.
// Every other mutation — CreateArray, a rewrite, DeleteVersion,
// recovery — commits a whole arrayMeta document (meta,
// last-writer-wins on replay), and a snapshot holds only whole
// documents. Both files use the chunk frame format — 13-byte header
// with magic, version, payload length, and CRC32-C — so a torn append
// is detected exactly like a torn chunk tail. Sequence numbers are
// contiguous: the snapshot stores the last sequence it covers and the
// log must continue at seq+1, so replay can tell a clean tail from a
// missing record.
//
// The format number in CURRENT (storeFormat) names what every record
// and file means. Open refuses any other number before it writes a
// byte, so a change to what a record or a file means bumps the number:
// an older binary then refuses the store instead of misreading it. A
// CURRENT without the key predates the number and reads as format 1.
//
// THE commit point of every mutation is the manifest append — fsynced
// under Durability, the same append without the fsync otherwise. Chunk
// payloads are synced before it, so once a record is durable everything
// it references is too. Because all arrays share the one log, a single
// append can carry records for many arrays — concurrent commits
// coalesce under the writer latch into one fsync, and a Write to
// several arrays commits as one record with all-or-nothing
// visibility.
//
// Failure handling: an append that fails before any byte is written
// (open failure) is benign; a failed write, fsync, or close leaves the
// log tail uncertain, so the manifest is poisoned — the whole store
// degrades read-only — until a heal truncates the log back to the last
// known-good byte. A failed CURRENT flip during rotation likewise
// poisons with the pending generation recorded, and the heal retries
// the (idempotent) flip.

const (
	// storeFormat numbers today's on-disk layout: the manifest log and
	// framed chunks. CURRENT records it; Open serves no other.
	storeFormat = 1
	// currentFile points at the live manifest generation.
	currentFile = "CURRENT"
	// manifestPrefix prefixes the per-generation snapshot/log files.
	manifestPrefix = "MANIFEST-"
	// defaultManifestRotateBytes is the log size that triggers a
	// snapshot rotation.
	defaultManifestRotateBytes = 4 << 20
)

func manifestSnapName(gen int) string { return fmt.Sprintf("%s%06d.snap", manifestPrefix, gen) }
func manifestLogName(gen int) string  { return fmt.Sprintf("%s%06d.log", manifestPrefix, gen) }

// manifestOp is one array's part of a commit record, in exactly one of
// three forms: Meta, the array's whole replacement document; Add, one
// write's appended versions; or Drop. Snapshots hold only Meta ops.
type manifestOp struct {
	Name string       `json:"name"`
	Drop bool         `json:"drop,omitempty"`
	Meta *arrayMeta   `json:"meta,omitempty"`
	Add  *arrayAppend `json:"add,omitempty"`
	// doc is the whole document an Add op leaves its array with, for
	// the mirror state; it is never encoded.
	doc *arrayMeta
}

// arrayAppend is one write's edit to an array's document: the header
// fields a write can change, and the versions it adds in id order.
// Gen is the chunk generation the versions were staged in; replay
// rejects an append whose Gen is not the replayed document's. Records
// an older writer left may also carry a "fileSeq" counter, which replay
// ignores.
type arrayAppend struct {
	SparseRep bool           `json:"sparseRep"`
	Fill      int64          `json:"fill"`
	NextID    int            `json:"nextId"`
	Gen       int            `json:"gen,omitempty"`
	Versions  []*versionMeta `json:"versions"`
}

// appendOp is the op that commits a write: doc is the whole document
// the write leaves the array with, added the versions it staged.
func appendOp(name string, doc *arrayMeta, added []*versionMeta) manifestOp {
	return manifestOp{Name: name, doc: doc, Add: &arrayAppend{
		SparseRep: doc.SparseRep,
		Fill:      doc.Fill,
		NextID:    doc.NextID,
		Gen:       doc.Gen,
		Versions:  added,
	}}
}

// applyAppend returns the document an append leaves prev with. prev is
// a replayed document nothing else holds, so the version slice may grow
// in place; the errors name what makes the append inconsistent with it.
func applyAppend(prev *arrayMeta, add *arrayAppend) (*arrayMeta, error) {
	if prev == nil {
		return nil, errors.New("append to an absent array")
	}
	if add.Gen != prev.Gen {
		return nil, fmt.Errorf("append staged in chunk generation %d, array is at %d", add.Gen, prev.Gen)
	}
	last := -1
	if n := len(prev.Versions); n > 0 {
		last = prev.Versions[n-1].ID
	}
	for _, vm := range add.Versions {
		switch {
		case vm == nil:
			return nil, errors.New("append holds a nil version")
		case vm.ID <= last:
			return nil, fmt.Errorf("appended version %d is not above version %d", vm.ID, last)
		case vm.ID >= add.NextID:
			return nil, fmt.Errorf("appended version %d is not below nextId %d", vm.ID, add.NextID)
		}
		last = vm.ID
	}
	doc := *prev
	doc.SparseRep, doc.Fill, doc.NextID = add.SparseRep, add.Fill, add.NextID
	doc.Versions = append(prev.Versions, add.Versions...)
	return &doc, nil
}

// manifestRecord is one committed mutation: every op in it becomes
// visible atomically at replay.
type manifestRecord struct {
	Seq int64        `json:"seq"`
	Ops []manifestOp `json:"ops"`
}

// manifestSnapshot is the full store state a generation starts from.
// Seq is the last sequence number the snapshot covers; the
// generation's log continues at Seq+1.
type manifestSnapshot struct {
	Seq    int64        `json:"seq"`
	Arrays []manifestOp `json:"arrays"`
}

// manifestCommit is one enqueued commit waiting for a leader to append
// it; done is closed once err is final.
type manifestCommit struct {
	ops  []manifestOp
	done chan struct{}
	err  error
}

// manifest is the store-wide commit log. Its writer latch (mu) is a
// leaf below every array latch and Store.mu: writers call commit()
// with Store.mu released, holding the array's writeMu (a create, whose
// array is not yet visible, holds none), and the manifest never takes
// any store or array lock back.
type manifest struct {
	s   *Store
	dir string

	// qmu guards the pending commit queue; commit() enqueues under it
	// and whichever committer wins mu drains the whole queue into one
	// append (cross-array group commit).
	qmu   sync.Mutex
	queue []*manifestCommit

	// mu is the log writer latch; everything below is guarded by it.
	mu sync.Mutex
	// gen is the live generation (CURRENT's value).
	gen int
	// nextSeq is the last sequence number committed.
	nextSeq int64
	// validOff is the byte length of the known-good log prefix; a
	// failed append leaves bytes past it in doubt until a heal
	// truncates them.
	validOff int64
	// state mirrors the committed metadata document of every array;
	// rotation snapshots it without touching Store.mu (committed docs
	// are never edited in place — mutators always clone).
	state map[string]*arrayMeta
	// poisoned holds the error that left the log tail uncertain; no
	// append runs until heal() clears it.
	poisoned error
	// pendingFlip is a rotation generation whose snapshot and log are
	// durable but whose CURRENT flip failed uncertainly; heal retries
	// the flip, which is idempotent.
	pendingFlip int
	// lazyTrunc marks a torn tail found by a non-durable open, which
	// must not mutate the directory; the first append truncates it.
	lazyTrunc bool
	// rotateAt is the log size that triggers rotation:
	// defaultManifestRotateBytes (tests lower it; <0 disables).
	rotateAt int64
}

// commitMeta commits one array's staged metadata document as one
// manifest record. Callers hold the array's writeMu.
func (s *Store) commitMeta(st *arrayState, m *arrayMeta) error {
	return s.man.commit([]manifestOp{{Name: st.Schema.Name, Meta: m}})
}

// commit appends ops as one record and returns once it is durable (or
// failed). Concurrent commits — even to different arrays — coalesce:
// the committer that wins the writer latch drains the whole queue and
// pays one write + one fsync for every record in it.
func (man *manifest) commit(ops []manifestOp) error {
	c := &manifestCommit{ops: ops, done: make(chan struct{})}
	man.qmu.Lock()
	man.queue = append(man.queue, c)
	man.qmu.Unlock()
	for {
		select {
		case <-c.done:
			return c.err
		default:
		}
		man.mu.Lock()
		select {
		case <-c.done:
			man.mu.Unlock()
			return c.err
		default:
		}
		man.qmu.Lock()
		batch := man.queue
		man.queue = nil
		man.qmu.Unlock()
		man.appendLocked(batch)
		man.mu.Unlock()
	}
}

// appendLocked encodes every queued commit into one buffer, appends it
// to the log with a single write and (under Durability) a single
// fsync, and installs the committed documents into the mirror state.
// Callers hold man.mu.
func (man *manifest) appendLocked(batch []*manifestCommit) {
	if len(batch) == 0 {
		return
	}
	finish := func(err error) {
		for _, c := range batch {
			c.err = err
			close(c.done)
		}
	}
	if man.poisoned != nil {
		// definite failure: nothing was appended. The earlier failure
		// already degraded the store; report that state, not a fresh
		// uncertainty.
		finish(fmt.Errorf("core: manifest log has an unhealed tail: %w", ErrDegraded))
		return
	}
	s := man.s
	startSeq := man.nextSeq
	var buf []byte
	for _, c := range batch {
		man.nextSeq++
		raw, err := json.Marshal(&manifestRecord{Seq: man.nextSeq, Ops: c.ops})
		if err != nil {
			man.nextSeq = startSeq
			finish(err)
			return
		}
		buf = appendFrame(buf, raw)
	}
	logPath := filepath.Join(man.dir, manifestLogName(man.gen))
	if man.lazyTrunc {
		// a non-durable open saw this torn tail but could not repair it
		// (read-only opens must not mutate); cut it now, before the
		// first append would otherwise land behind garbage
		if err := s.fs.Truncate(logPath, man.validOff); err != nil {
			man.nextSeq = startSeq
			finish(err)
			return
		}
		man.lazyTrunc = false
	}
	f, err := s.fs.Append(logPath)
	if err != nil {
		// benign: the log was never opened, nothing changed on disk
		man.nextSeq = startSeq
		finish(err)
		return
	}
	_, werr := f.Write(buf)
	if werr == nil && s.opts.Durability {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		// uncertain: some prefix of the batch may be durable. The tail
		// past validOff is poisoned — appending behind it would commit
		// records that replay may never reach — so the whole store
		// degrades until the heal truncates the log back to validOff.
		man.nextSeq = startSeq
		man.poisonLocked(werr)
		finish(uncertain(werr))
		return
	}
	for _, c := range batch {
		for i := range c.ops {
			op := &c.ops[i]
			switch {
			case op.Drop:
				delete(man.state, op.Name)
			case op.Add != nil:
				man.state[op.Name] = op.doc
			default:
				man.state[op.Name] = op.Meta
			}
		}
	}
	man.validOff += int64(len(buf))
	s.addManifestCommit(len(batch))
	finish(nil)
	if man.rotateAt >= 0 && man.validOff > man.rotateAt {
		man.rotateLocked()
	}
}

// poisonLocked marks the log tail uncertain and degrades the whole
// store: every array shares this one commit point, so none of them can
// safely commit until the heal repairs it. Callers hold man.mu.
func (man *manifest) poisonLocked(err error) {
	man.poisoned = err
	man.s.degradeStore(err)
}

// rotateLocked writes a fresh snapshot generation and flips CURRENT to
// it. Rotation is housekeeping for the commit that triggered it — that
// commit already succeeded — so a failure before the flip is benign:
// remove the debris, keep the old generation, retry at the next
// append. From the CURRENT flip on a failure is uncertain and poisons
// the manifest with the flip pending; heal retries it. Callers hold
// man.mu.
func (man *manifest) rotateLocked() {
	newGen := man.gen + 1
	err := man.writeGeneration(newGen, man.nextSeq)
	switch {
	case err == nil:
		man.finishFlipLocked(newGen)
	case isUncertain(err):
		man.pendingFlip = newGen
		man.poisonLocked(err)
	default:
		man.s.noteDiskPressure(err)
		_ = man.s.fs.Remove(filepath.Join(man.dir, manifestSnapName(newGen)))
		_ = man.s.fs.Remove(filepath.Join(man.dir, manifestLogName(newGen)))
	}
}

// writeGeneration writes generation gen — a snapshot of man.state as of
// seq plus an empty log — makes both durable, and points CURRENT at it.
// Failures before the flip are benign (the files are unreferenced and a
// retry overwrites them); writeCurrent marks its failures from the
// rename on as uncertain. Rotation and the creation of a new store both
// publish a generation this way.
func (man *manifest) writeGeneration(gen int, seq int64) error {
	snap := manifestSnapshot{Seq: seq}
	names := make([]string, 0, len(man.state))
	for n := range man.state {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		snap.Arrays = append(snap.Arrays, manifestOp{Name: n, Meta: man.state[n]})
	}
	raw, err := json.Marshal(&snap)
	if err != nil {
		return err
	}
	if err := man.writeFileSync(manifestSnapName(gen), appendFrame(nil, raw)); err != nil {
		return err
	}
	if err := man.writeFileSync(manifestLogName(gen), nil); err != nil {
		return err
	}
	if man.s.opts.Durability {
		// the new generation's directory entries must be durable before
		// CURRENT can point at them
		if err := man.s.fs.SyncDir(man.dir); err != nil {
			return err
		}
	}
	return man.writeCurrent(gen)
}

// finishFlipLocked installs a committed rotation: the generation
// advances, the log restarts empty, and the superseded generation's
// files are swept best-effort (a crashed sweep leaves debris for the
// next durable open). Callers hold man.mu.
func (man *manifest) finishFlipLocked(newGen int) {
	old := man.gen
	man.gen = newGen
	man.validOff = 0
	man.lazyTrunc = false
	man.pendingFlip = 0
	man.s.stats.ManifestRotations.Add(1)
	_ = man.s.fs.Remove(filepath.Join(man.dir, manifestSnapName(old)))
	_ = man.s.fs.Remove(filepath.Join(man.dir, manifestLogName(old)))
}

// writeFileSync creates name under the manifest dir with the given
// contents, fsynced under Durability. Failures are benign: Create
// truncates, so a retry starts clean.
func (man *manifest) writeFileSync(name string, data []byte) error {
	s := man.s
	f, err := s.fs.Create(filepath.Join(man.dir, name))
	if err != nil {
		return err
	}
	var werr error
	if len(data) > 0 {
		_, werr = f.Write(data)
	}
	if werr == nil && s.opts.Durability {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// writeCurrent atomically points CURRENT at gen, stamped storeFormat:
// tmp write (+fsync under Durability), rename, parent sync. Failures
// through the tmp close are benign; from the rename on the pointer may
// or may not have moved, so those are marked uncertain.
func (man *manifest) writeCurrent(gen int) error {
	s := man.s
	if err := man.writeFileSync(currentFile+".tmp", []byte(fmt.Sprintf("{\"gen\":%d,\"format\":%d}\n", gen, storeFormat))); err != nil {
		return err
	}
	if err := s.fs.Rename(filepath.Join(man.dir, currentFile+".tmp"), filepath.Join(man.dir, currentFile)); err != nil {
		return uncertain(err)
	}
	if s.opts.Durability {
		return uncertain(s.fs.SyncDir(man.dir))
	}
	return nil
}

// heal repairs the manifest after an uncertain failure: a pending
// rotation flip is retried (the new generation's files are already
// durable, so re-pointing CURRENT is idempotent), and a poisoned log
// tail is truncated back to the last byte every acknowledged commit
// covers. Called from Store.Heal's store-degraded branch.
func (man *manifest) heal() error {
	man.mu.Lock()
	defer man.mu.Unlock()
	if man.pendingFlip != 0 {
		if err := man.writeCurrent(man.pendingFlip); err != nil {
			return err
		}
		man.finishFlipLocked(man.pendingFlip)
		man.poisoned = nil
		return nil
	}
	if man.poisoned == nil {
		return nil
	}
	logPath := filepath.Join(man.dir, manifestLogName(man.gen))
	if err := man.s.fs.Truncate(logPath, man.validOff); err != nil {
		return err
	}
	man.poisoned = nil
	return nil
}

// --- create, open, replay ---

// createManifest gives a new store its first, empty generation.
func createManifest(s *Store) (*manifest, error) {
	if err := s.fs.MkdirAll(s.dir); err != nil {
		return nil, fmt.Errorf("core: create store dir: %w", err)
	}
	man := &manifest{s: s, dir: s.dir, gen: 1, state: make(map[string]*arrayMeta), rotateAt: defaultManifestRotateBytes}
	if err := man.writeGeneration(1, 0); err != nil {
		return nil, fmt.Errorf("core: create manifest: %w", err)
	}
	return man, nil
}

// readCurrent parses the CURRENT pointer. A format other than
// storeFormat is ErrFormat; a CURRENT without one reads as format 1.
func readCurrent(dir string) (int, error) {
	raw, err := os.ReadFile(filepath.Join(dir, currentFile))
	if err != nil {
		return 0, err
	}
	cur := struct {
		Gen    int `json:"gen"`
		Format int `json:"format"`
	}{Format: 1}
	if err := json.Unmarshal(raw, &cur); err != nil {
		return 0, fmt.Errorf("core: corrupt %s: %w", currentFile, err)
	}
	if cur.Format != storeFormat {
		return 0, fmt.Errorf("core: %s: %w", currentFile, formatError(fmt.Sprintf("format %d", cur.Format)))
	}
	if cur.Gen < 1 {
		return 0, fmt.Errorf("core: corrupt %s: generation %d", currentFile, cur.Gen)
	}
	return cur.Gen, nil
}

// scanManifestFrame parses one AVC1 frame at the head of buf. ok is
// false when the bytes do not form a complete, checksum-valid frame —
// at the log tail that is a torn append, indistinguishable by design
// from a crash mid-write.
func scanManifestFrame(buf []byte) (payload []byte, size int64, ok bool) {
	if len(buf) < frameHeaderLen {
		return nil, 0, false
	}
	n := int64(binary.LittleEndian.Uint32(buf[5:9]))
	if int64(len(buf)) < frameHeaderLen+n {
		return nil, 0, false
	}
	payload, err := parseFrame(buf[:frameHeaderLen+n], n)
	return payload, frameHeaderLen + n, err == nil
}

// manifestReplay is a manifest chain as read back from disk.
type manifestReplay struct {
	gen              int
	snapSeq, lastSeq int64
	records          int64 // checksum-valid log records replayed
	state            map[string]*arrayMeta
	validOff         int64 // byte length of the replayed log prefix
	tornBytes        int64 // unreplayable bytes behind it (a torn final append)
}

// replayManifest reads CURRENT, the snapshot, and the log in sequence
// order through plain os reads; it never repairs anything. A store in
// another format fails with ErrFormat, before Open can write. A torn
// log tail is not an error. A checksum-valid record with a
// non-contiguous sequence number or an undecodable document is
// corruption: the error names it, and r holds what was replayed up to
// that point.
func replayManifest(dir string) (r manifestReplay, err error) {
	r.state = make(map[string]*arrayMeta)
	if r.gen, err = readCurrent(dir); err != nil {
		return r, err
	}
	apply := func(where string, ops []manifestOp) error {
		for i := range ops {
			op := &ops[i]
			switch {
			case op.Drop:
				delete(r.state, op.Name)
			case op.Meta != nil && op.Add != nil:
				return fmt.Errorf("core: manifest %s: array %q has both a document and an append", where, op.Name)
			case op.Add != nil:
				doc, err := applyAppend(r.state[op.Name], op.Add)
				if err != nil {
					return fmt.Errorf("core: manifest %s: array %q: %w", where, op.Name, err)
				}
				r.state[op.Name] = doc
			case op.Meta == nil:
				return fmt.Errorf("core: manifest %s: array %q has no document", where, op.Name)
			default:
				if err := op.Meta.Schema.Validate(); err != nil {
					return fmt.Errorf("core: manifest %s: array %q: %w", where, op.Name, err)
				}
				if slices.Contains(op.Meta.Versions, nil) {
					return fmt.Errorf("core: manifest %s: array %q holds a nil version", where, op.Name)
				}
				if op.Meta.Format != formatFramed {
					return fmt.Errorf("core: manifest %s: %w", where, formatError(fmt.Sprintf("format %d: array %q has unframed chunks", op.Meta.Format, op.Name)))
				}
				r.state[op.Name] = op.Meta
			}
		}
		return nil
	}
	snapName := manifestSnapName(r.gen)
	snapRaw, err := os.ReadFile(filepath.Join(dir, snapName))
	if err != nil {
		return r, fmt.Errorf("core: manifest snapshot: %w", err)
	}
	payload, size, ok := scanManifestFrame(snapRaw)
	if !ok || size != int64(len(snapRaw)) {
		return r, fmt.Errorf("core: manifest snapshot %s: corrupt snapshot frame", snapName)
	}
	var snap manifestSnapshot
	if err := json.Unmarshal(payload, &snap); err != nil {
		return r, fmt.Errorf("core: manifest snapshot %s: %w", snapName, err)
	}
	for _, op := range snap.Arrays {
		if op.Add != nil {
			return r, fmt.Errorf("core: manifest snapshot %s: array %q: append op inside a snapshot", snapName, op.Name)
		}
		if op.Drop {
			return r, fmt.Errorf("core: manifest snapshot %s: array %q has no document", snapName, op.Name)
		}
	}
	if err := apply("snapshot "+snapName, snap.Arrays); err != nil {
		return r, err
	}
	r.snapSeq, r.lastSeq = snap.Seq, snap.Seq

	logName := manifestLogName(r.gen)
	logRaw, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return r, fmt.Errorf("core: manifest log: %w", err)
	}
	for r.validOff < int64(len(logRaw)) {
		payload, size, ok := scanManifestFrame(logRaw[r.validOff:])
		if !ok {
			break // torn tail
		}
		var rec manifestRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return r, fmt.Errorf("core: manifest log %s at offset %d: corrupt record: %w", logName, r.validOff, err)
		}
		if rec.Seq != r.lastSeq+1 {
			return r, fmt.Errorf("core: manifest log %s at offset %d: sequence %d, want %d", logName, r.validOff, rec.Seq, r.lastSeq+1)
		}
		if err := apply(fmt.Sprintf("log %s record %d", logName, rec.Seq), rec.Ops); err != nil {
			return r, err
		}
		r.lastSeq = rec.Seq
		r.records++
		r.validOff += size
	}
	r.tornBytes = int64(len(logRaw)) - r.validOff
	return r, nil
}

// openManifest replays an existing manifest. A torn log tail is
// truncated under Durability (recorded in recovery stats) or replayed
// around and cut lazily by the first append otherwise.
func openManifest(s *Store) (*manifest, error) {
	r, err := replayManifest(s.dir)
	if err != nil {
		return nil, err
	}
	man := &manifest{
		s:        s,
		dir:      s.dir,
		gen:      r.gen,
		nextSeq:  r.lastSeq,
		validOff: r.validOff,
		state:    r.state,
		rotateAt: defaultManifestRotateBytes,
	}
	if r.tornBytes > 0 {
		if s.opts.Durability {
			if err := s.fs.Truncate(filepath.Join(s.dir, manifestLogName(r.gen)), r.validOff); err != nil {
				return nil, fmt.Errorf("core: truncate torn manifest tail: %w", err)
			}
			s.recovery.TruncatedFiles++
			s.recovery.TruncatedBytes += r.tornBytes
		} else {
			man.lazyTrunc = true
		}
	}
	return man, nil
}

// sweepRootLocked removes root-level crash debris on a durable open:
// superseded or half-written MANIFEST generations, CURRENT tmp files,
// and directories the replayed state does not reference (a crashed
// CreateArray that never committed, or a committed DeleteArray whose
// removal was interrupted).
func (man *manifest) sweepRootLocked() error {
	s := man.s
	entries, err := os.ReadDir(man.dir)
	if err != nil {
		return err
	}
	keepSnap, keepLog := manifestSnapName(man.gen), manifestLogName(man.gen)
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			if _, live := man.state[name]; live {
				continue
			}
			if err := s.fs.RemoveAll(filepath.Join(man.dir, name)); err != nil {
				return fmt.Errorf("sweep array dir %q: %w", name, err)
			}
			s.recovery.RemovedFiles++
			continue
		}
		stale := name == currentFile+".tmp" ||
			(strings.HasPrefix(name, manifestPrefix) && name != keepSnap && name != keepLog)
		if stale {
			if err := s.fs.Remove(filepath.Join(man.dir, name)); err != nil {
				return fmt.Errorf("sweep %q: %w", name, err)
			}
			s.recovery.RemovedFiles++
		}
	}
	return nil
}

// --- stats ---

func (s *Store) addManifestCommit(records int) {
	c := &s.stats
	c.ManifestRecords.Add(int64(records))
	c.ManifestAppends.Add(1)
	if s.opts.Durability {
		c.ManifestFsyncs.Add(1)
	}
}

// --- deep verification (avstore fsck) ---

// ManifestReport is VerifyManifest's result: the replayed chain's
// shape plus every integrity problem found. StrayFiles lists harmless
// crash debris a durable open would sweep; Problems are real
// corruption.
type ManifestReport struct {
	// Gen is the live generation CURRENT points at.
	Gen int `json:"gen"`
	// SnapshotSeq is the sequence number the snapshot covers; LastSeq
	// is the last sequence replayed from the log.
	SnapshotSeq int64 `json:"snapshotSeq"`
	LastSeq     int64 `json:"lastSeq"`
	// LogRecords counts checksum-valid records replayed from the log.
	LogRecords int64 `json:"logRecords"`
	// Arrays is the number of live arrays in the replayed state.
	Arrays int `json:"arrays"`
	// TornBytes counts unreplayable bytes at the log tail (a torn
	// final append — repaired, not a problem).
	TornBytes int64 `json:"tornBytes"`
	// StrayFiles lists crash debris: superseded MANIFEST generations,
	// CURRENT tmp files, unreferenced directories, and per-array
	// versions.json files an older binary's migration left behind.
	StrayFiles []string `json:"strayFiles,omitempty"`
	// Problems lists integrity violations: the first bad checksum
	// mid-chain, sequence gap or undecodable document, and committed
	// arrays whose directories are missing.
	Problems []string `json:"problems,omitempty"`
}

// Ok reports whether the manifest chain verified clean.
func (r ManifestReport) Ok() bool { return len(r.Problems) == 0 }

// VerifyManifest deep-verifies the manifest chain from disk: CURRENT,
// the snapshot frame, every log record's checksum and sequence
// continuity, and that every committed array resolves to a directory.
// It reads through the plain os layer and never repairs anything, so
// it is safe on a store opened read-only. The writer latch is held so
// the log is not scanned mid-append.
func (s *Store) VerifyManifest() (ManifestReport, error) {
	s.man.mu.Lock()
	defer s.man.mu.Unlock()
	r, rerr := replayManifest(s.dir)
	rep := ManifestReport{
		Gen:         r.gen,
		SnapshotSeq: r.snapSeq,
		LastSeq:     r.lastSeq,
		LogRecords:  r.records,
		Arrays:      len(r.state),
		TornBytes:   r.tornBytes,
	}
	if rerr != nil {
		rep.Problems = append(rep.Problems, rerr.Error())
		return rep, nil
	}
	// orphaned-record sweep: every committed array must resolve to a
	// directory, and leftover files (superseded generations, an older
	// binary's versions.json inside array dirs) are reported as strays
	for name := range r.state {
		if info, err := os.Stat(filepath.Join(s.dir, name)); err != nil || !info.IsDir() {
			rep.Problems = append(rep.Problems, fmt.Sprintf("array %q is committed but its directory is missing", name))
		} else if _, err := os.Stat(filepath.Join(s.dir, name, metaFile)); err == nil {
			rep.StrayFiles = append(rep.StrayFiles, filepath.Join(name, metaFile))
		}
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return rep, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			if _, live := r.state[name]; !live {
				rep.StrayFiles = append(rep.StrayFiles, name+string(os.PathSeparator))
			}
			continue
		}
		if name == currentFile+".tmp" ||
			(strings.HasPrefix(name, manifestPrefix) && name != manifestSnapName(r.gen) && name != manifestLogName(r.gen)) {
			rep.StrayFiles = append(rep.StrayFiles, name)
		}
	}
	sort.Strings(rep.StrayFiles)
	return rep, nil
}
