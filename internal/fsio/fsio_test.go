package fsio

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func writeAll(t *testing.T, f File, data []byte) {
	t.Helper()
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
}

func TestOSAppendAndSync(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.chain")
	f, err := OS.Append(path)
	if err != nil {
		t.Fatal(err)
	}
	writeAll(t, f, []byte("hello"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if sz, _ := f.Size(); sz != 5 {
		t.Fatalf("size = %d, want 5", sz)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// append resumes at the end
	f, err = OS.Append(path)
	if err != nil {
		t.Fatal(err)
	}
	writeAll(t, f, []byte("!"))
	f.Close()
	got, _ := os.ReadFile(path)
	if string(got) != "hello!" {
		t.Fatalf("content = %q", got)
	}
	if err := OS.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
}

func TestFaultCountsAndRefusesAfterCrash(t *testing.T) {
	dir := t.TempDir()
	fs := NewFault(3)
	f, err := fs.Append(filepath.Join(dir, "x")) // step 1
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("ab")); err != nil { // step 2
		t.Fatal(err)
	}
	if err := f.Sync(); !errors.Is(err, ErrCrashed) { // step 3: crash
		t.Fatalf("expected crash, got %v", err)
	}
	if _, err := f.Write([]byte("cd")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash write must refuse, got %v", err)
	}
	if !fs.Crashed() {
		t.Fatal("Crashed() should be true")
	}
	// the unsynced 2-byte tail is torn to 1 byte, and the freshly created
	// file's parent dir was never synced, so the file itself is gone
	if _, err := os.Lstat(filepath.Join(dir, "x")); !os.IsNotExist(err) {
		t.Fatalf("unsynced new file should be lost, got %v", err)
	}
}

func TestFaultTearsUnsyncedTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x")
	if err := os.WriteFile(path, []byte("durable"), 0o644); err != nil {
		t.Fatal(err)
	}
	// steps: open(1) write(2) sync(3) write(4) crash-at-5
	fs := NewFault(5)
	f, _ := fs.Append(path)
	writeAll(t, f, []byte("AAAA"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("BBBB")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("want crash, got %v", err)
	}
	got, _ := os.ReadFile(path)
	// synced prefix "durableAAAA" survives; half of the 4 unsynced bytes
	// remain as a torn tail
	if string(got) != "durableAAAABB" {
		t.Fatalf("post-crash content = %q", got)
	}
}

func TestFaultUndoesUnsyncedRename(t *testing.T) {
	dir := t.TempDir()
	meta := filepath.Join(dir, "versions.json")
	tmp := filepath.Join(dir, "versions.json.tmp")
	if err := os.WriteFile(meta, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	// steps: create(1) write(2) sync(3) rename(4) crash at syncdir(5)
	fs := NewFault(5)
	f, err := fs.Create(tmp)
	if err != nil {
		t.Fatal(err)
	}
	writeAll(t, f, []byte("new"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename(tmp, meta); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir(dir); !errors.Is(err, ErrCrashed) {
		t.Fatalf("want crash, got %v", err)
	}
	got, _ := os.ReadFile(meta)
	if string(got) != "old" {
		t.Fatalf("unsynced rename must roll back: meta = %q", got)
	}
	if _, err := os.Lstat(tmp); !os.IsNotExist(err) {
		t.Fatal("tmp file (created, never dir-synced) should be gone")
	}
}

func TestFaultRenameDurableAfterSyncDir(t *testing.T) {
	dir := t.TempDir()
	meta := filepath.Join(dir, "versions.json")
	tmp := filepath.Join(dir, "versions.json.tmp")
	if err := os.WriteFile(meta, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	// crash on the step after the syncdir
	fs := NewFault(6)
	f, _ := fs.Create(tmp)
	writeAll(t, f, []byte("new"))
	f.Sync()
	f.Close()
	if err := fs.Rename(tmp, meta); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove(meta); !errors.Is(err, ErrCrashed) {
		t.Fatalf("want crash, got %v", err)
	}
	got, _ := os.ReadFile(meta)
	if string(got) != "new" {
		t.Fatalf("synced rename must survive: meta = %q", got)
	}
}

func TestFaultMkdirAllLostWithoutParentSync(t *testing.T) {
	dir := t.TempDir()
	sub := filepath.Join(dir, "arr", "chunks")
	fs := NewFault(2)
	if err := fs.MkdirAll(sub); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove(filepath.Join(dir, "nope")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("want crash, got %v", err)
	}
	if _, err := os.Lstat(filepath.Join(dir, "arr")); !os.IsNotExist(err) {
		t.Fatal("unsynced directory chain should be lost")
	}
}

// TestFaultRenamedDirKeepsLossModel: a directory renamed, and the rename
// made durable, still loses what was never synced inside it — a file
// created in it without a sync of the directory, and the unsynced tail
// of a file that was created durably.
func TestFaultRenamedDirKeepsLossModel(t *testing.T) {
	dir := t.TempDir()
	build := filepath.Join(dir, "build")
	final := filepath.Join(dir, "final")
	fs := NewFault(0)
	if err := fs.MkdirAll(build); err != nil {
		t.Fatal(err)
	}
	kept, _ := fs.Append(filepath.Join(build, "kept"))
	writeAll(t, kept, []byte("synced"))
	kept.Sync()
	if err := fs.SyncDir(build); err != nil {
		t.Fatal(err)
	}
	writeAll(t, kept, []byte("tailtail"))
	kept.Close()
	lost, _ := fs.Append(filepath.Join(build, "lost"))
	writeAll(t, lost, []byte("x"))
	lost.Sync()
	lost.Close()
	if err := fs.Rename(build, final); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	fs.CrashAt = fs.Steps() + 1
	if err := fs.Remove(filepath.Join(dir, "nope")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("want crash, got %v", err)
	}
	if got, _ := os.ReadFile(filepath.Join(final, "kept")); string(got) != "syncedtail" {
		t.Fatalf("kept = %q, want the synced bytes plus half the tail", got)
	}
	if _, err := os.Lstat(filepath.Join(final, "lost")); !os.IsNotExist(err) {
		t.Fatal("a file created in the renamed directory without a sync of it must be lost")
	}
}
