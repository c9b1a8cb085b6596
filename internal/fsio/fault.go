package fsio

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// ErrCrashed is returned by every Fault operation at and after the
// injected crash point. Match with errors.Is.
var ErrCrashed = errors.New("fsio: injected crash")

// Fault wraps the real filesystem and simulates a power cut at one
// numbered mutation step. Every mutating operation (mkdir, open, write,
// sync, rename, truncate, remove) is one step; when the step counter
// reaches CrashAt the operation does not execute, the on-disk tree is
// rewritten to what a real crash would have left behind, and every
// subsequent operation fails with ErrCrashed.
//
// The loss model, applied once at the crash point:
//
//   - renames whose parent directory was never synced are undone
//     (the moved entry goes back, the replaced destination is restored);
//     a renamed directory takes its files' state along, so what was
//     unsynced inside it is lost under either name;
//   - files and directories created since their parent's last sync are
//     removed entirely;
//   - every surviving file written through the Fault is truncated to its
//     last synced length plus half of the unsynced tail, so crashes tear
//     frames mid-write rather than cutting at clean boundaries.
//
// Paths never touched through the Fault are assumed durable from before
// and are left alone. A CrashAt of 0 never crashes: the Fault then just
// counts steps, which is how tests enumerate the crash-point matrix.
type Fault struct {
	// CrashAt is the 1-based step number at which to crash; 0 disables.
	CrashAt int64

	mu      sync.Mutex
	step    int64
	crashed bool
	files   map[string]*faultFileState
	renames []renameUndo
	created []createdEntry
}

type faultFileState struct {
	synced int64 // durable length (last Sync)
	size   int64 // current real length
}

type renameUndo struct {
	dir      string // parent of newPath; a SyncDir here makes it durable
	oldPath  string
	newPath  string
	isDir    bool
	hadDst   bool
	dstBytes []byte
}

type createdEntry struct {
	dir   string // parent; a SyncDir here makes the creation durable
	path  string
	isDir bool
}

// NewFault returns a Fault that crashes before executing step crashAt
// (1-based); 0 never crashes.
func NewFault(crashAt int64) *Fault {
	return &Fault{CrashAt: crashAt, files: make(map[string]*faultFileState)}
}

// Steps returns the number of mutation steps executed (or refused) so
// far.
func (f *Fault) Steps() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.step
}

// Crashed reports whether the crash point has been reached.
func (f *Fault) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// op accounts one mutation step. Callers hold f.mu.
func (f *Fault) op() error {
	if f.crashed {
		return ErrCrashed
	}
	f.step++
	if f.CrashAt > 0 && f.step >= f.CrashAt {
		f.crashed = true
		f.applyLossLocked()
		return ErrCrashed
	}
	return nil
}

// applyLossLocked rewrites the tree to the post-crash state.
func (f *Fault) applyLossLocked() {
	// 1. undo renames the crash caught before their directory sync
	for i := len(f.renames) - 1; i >= 0; i-- {
		u := f.renames[i]
		if u.isDir {
			_ = os.Rename(u.newPath, u.oldPath)
		} else {
			if cur, err := os.ReadFile(u.newPath); err == nil {
				_ = os.WriteFile(u.oldPath, cur, 0o644)
			}
			if u.hadDst {
				_ = os.WriteFile(u.newPath, u.dstBytes, 0o644)
			} else {
				_ = os.Remove(u.newPath)
			}
		}
		f.moveLocked(u.newPath, u.oldPath, u.isDir)
	}
	f.renames = nil
	// 2. drop files/dirs created since their parent's last sync
	for i := len(f.created) - 1; i >= 0; i-- {
		c := f.created[i]
		if c.isDir {
			_ = os.RemoveAll(c.path)
		} else {
			_ = os.Remove(c.path)
		}
		delete(f.files, c.path)
	}
	f.created = nil
	// 3. tear every unsynced tail: keep half the unsynced bytes
	for path, st := range f.files {
		if st.size > st.synced {
			keep := st.synced + (st.size-st.synced)/2
			_ = os.Truncate(path, keep)
		}
	}
}

func exists(path string) bool {
	_, err := os.Lstat(path)
	return err == nil
}

// MkdirAll creates the directory chain, recording each newly created
// level as pending until its parent is synced.
func (f *Fault) MkdirAll(path string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.op(); err != nil {
		return err
	}
	// find the missing suffix of the chain before creating it
	var missing []string
	for p := filepath.Clean(path); !exists(p); p = filepath.Dir(p) {
		missing = append(missing, p)
		if p == filepath.Dir(p) {
			break
		}
	}
	if err := os.MkdirAll(path, 0o755); err != nil {
		return err
	}
	for i := len(missing) - 1; i >= 0; i-- {
		f.created = append(f.created, createdEntry{dir: filepath.Dir(missing[i]), path: missing[i], isDir: true})
	}
	return nil
}

func (f *Fault) open(path string, trunc bool) (File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.op(); err != nil {
		return nil, err
	}
	fresh := !exists(path)
	flags := os.O_CREATE | os.O_WRONLY
	if trunc {
		flags |= os.O_TRUNC
	} else {
		flags |= os.O_APPEND
	}
	file, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, err
	}
	if fresh {
		f.created = append(f.created, createdEntry{dir: filepath.Dir(path), path: path})
	}
	info, err := file.Stat()
	if err != nil {
		_ = file.Close() // the stat error is the failure; no writes happened yet
		return nil, err
	}
	st, ok := f.files[path]
	if !ok || trunc {
		// pre-existing bytes of an untracked file are durable from before;
		// a truncating open starts a fresh, fully-unsynced life
		st = &faultFileState{synced: info.Size(), size: info.Size()}
		if trunc || fresh {
			st.synced = 0
		}
		f.files[path] = st
	}
	st.size = info.Size()
	return &faultFile{fault: f, f: file, path: path}, nil
}

// Append opens path for appending.
func (f *Fault) Append(path string) (File, error) { return f.open(path, false) }

// Create opens path truncated.
func (f *Fault) Create(path string) (File, error) { return f.open(path, true) }

// Rename performs the rename but records it as undoable until the
// destination's parent directory is synced.
func (f *Fault) Rename(oldPath, newPath string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.op(); err != nil {
		return err
	}
	u := renameUndo{dir: filepath.Dir(newPath), oldPath: oldPath, newPath: newPath}
	if info, err := os.Lstat(oldPath); err == nil {
		u.isDir = info.IsDir()
	}
	if !u.isDir {
		if cur, err := os.ReadFile(newPath); err == nil {
			u.hadDst = true
			u.dstBytes = cur
		}
	}
	if err := os.Rename(oldPath, newPath); err != nil {
		return err
	}
	f.moveLocked(oldPath, newPath, u.isDir)
	// a pending creation record for oldPath itself stays keyed there: on
	// crash the rename is undone first, putting the entry back at
	// oldPath, and the creation loss then removes it from there
	f.renames = append(f.renames, u)
	return nil
}

// moveLocked rekeys the tracking state of a renamed entry from one path
// to the other: its own file state and, for a directory, the state and
// pending creations of everything under it, so their unsynced bytes and
// entries are lost wherever the directory ends up. Callers hold f.mu.
func (f *Fault) moveLocked(from, to string, isDir bool) {
	if st, ok := f.files[from]; ok {
		delete(f.files, from)
		f.files[to] = st
	}
	if !isDir {
		return
	}
	prefix := filepath.Clean(from) + string(filepath.Separator)
	under := func(p string) (string, bool) {
		if !strings.HasPrefix(p, prefix) {
			return p, false
		}
		return filepath.Join(to, p[len(prefix):]), true
	}
	moved := map[string]*faultFileState{}
	for p, st := range f.files {
		if np, ok := under(p); ok {
			delete(f.files, p)
			moved[np] = st
		}
	}
	for p, st := range moved {
		f.files[p] = st
	}
	for i, c := range f.created {
		if np, ok := under(c.path); ok {
			f.created[i] = createdEntry{dir: filepath.Dir(np), path: np, isDir: c.isDir}
		}
	}
}

// SyncDir makes renames into and creations inside path durable.
func (f *Fault) SyncDir(path string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.op(); err != nil {
		return err
	}
	clean := filepath.Clean(path)
	kept := f.renames[:0]
	for _, u := range f.renames {
		if filepath.Clean(u.dir) != clean {
			kept = append(kept, u)
		}
	}
	f.renames = kept
	keptC := f.created[:0]
	for _, c := range f.created {
		if filepath.Clean(c.dir) != clean {
			keptC = append(keptC, c)
		}
	}
	f.created = keptC
	return OS.SyncDir(path)
}

// Truncate cuts the file; the new length is treated as durable.
func (f *Fault) Truncate(path string, size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.op(); err != nil {
		return err
	}
	if err := os.Truncate(path, size); err != nil {
		return err
	}
	if st, ok := f.files[path]; ok {
		if st.synced > size {
			st.synced = size
		}
		st.size = size
	}
	return nil
}

// Remove deletes one file (durable immediately).
func (f *Fault) Remove(path string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.op(); err != nil {
		return err
	}
	if err := os.Remove(path); err != nil {
		return err
	}
	f.forget(path)
	return nil
}

// RemoveAll deletes a tree (durable immediately).
func (f *Fault) RemoveAll(path string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.op(); err != nil {
		return err
	}
	if err := os.RemoveAll(path); err != nil {
		return err
	}
	f.forget(path)
	return nil
}

// forget drops tracking state at and under path. Callers hold f.mu.
func (f *Fault) forget(path string) {
	prefix := filepath.Clean(path) + string(filepath.Separator)
	for p := range f.files {
		if p == path || strings.HasPrefix(p, prefix) {
			delete(f.files, p)
		}
	}
	kept := f.created[:0]
	for _, c := range f.created {
		if c.path != path && !strings.HasPrefix(c.path, prefix) {
			kept = append(kept, c)
		}
	}
	f.created = kept
}

type faultFile struct {
	fault *Fault
	f     *os.File
	path  string
}

func (w *faultFile) Write(p []byte) (int, error) {
	w.fault.mu.Lock()
	defer w.fault.mu.Unlock()
	if err := w.fault.op(); err != nil {
		return 0, err
	}
	n, err := w.f.Write(p)
	if st, ok := w.fault.files[w.path]; ok {
		st.size += int64(n)
	}
	return n, err
}

func (w *faultFile) Sync() error {
	w.fault.mu.Lock()
	defer w.fault.mu.Unlock()
	if err := w.fault.op(); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	if st, ok := w.fault.files[w.path]; ok {
		st.synced = st.size
	}
	return nil
}

func (w *faultFile) Close() error {
	w.fault.mu.Lock()
	defer w.fault.mu.Unlock()
	err := w.f.Close()
	if w.fault.crashed {
		return ErrCrashed
	}
	return err
}

func (w *faultFile) Size() (int64, error) {
	w.fault.mu.Lock()
	defer w.fault.mu.Unlock()
	if w.fault.crashed {
		return 0, ErrCrashed
	}
	info, err := w.f.Stat()
	if err != nil {
		return 0, fmt.Errorf("fsio: stat %s: %w", w.path, err)
	}
	return info.Size(), nil
}
