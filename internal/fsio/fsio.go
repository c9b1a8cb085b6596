// Package fsio is the filesystem seam under internal/core's write
// paths. Every mutation the store performs on disk — chunk appends,
// manifest-log appends, the tmp-write/rename flip of the CURRENT
// pointer, directory syncs, recovery truncations — goes through the FS
// interface, so tests can substitute a fault-injecting implementation
// (Fault) that kills the process-visible world at any numbered step and
// then simulates what a real power cut leaves behind: torn unsynced
// tails and un-persisted renames.
//
// Read paths stay on the plain os package: reads cannot lose data, and
// crash simulation only needs to intercept mutations. The store reads
// chunk frames with pread through cached read-only *os.File handles on
// every platform. Map (mmap.go) maps a whole file read-only; nothing in
// the store calls it.
package fsio

import (
	"io"
	"os"
)

// FS is the write-side filesystem interface. All paths are absolute or
// process-cwd-relative, exactly as the os package takes them.
type FS interface {
	// MkdirAll creates a directory and any missing parents.
	MkdirAll(path string) error
	// Append opens path for appending, creating it if absent.
	Append(path string) (File, error)
	// Create opens path truncated to zero length, creating it if absent.
	Create(path string) (File, error)
	// Rename atomically replaces newPath with oldPath's entry. The
	// rename is only durable once the parent directory is synced.
	Rename(oldPath, newPath string) error
	// SyncDir fsyncs a directory, making previously renamed/created
	// entries durable.
	SyncDir(path string) error
	// Truncate cuts a file to size bytes.
	Truncate(path string, size int64) error
	// Remove deletes one file.
	Remove(path string) error
	// RemoveAll deletes a tree.
	RemoveAll(path string) error
}

// File is an open writable file.
type File interface {
	io.Writer
	// Sync flushes written data to stable storage.
	Sync() error
	// Close releases the handle. A failed Close after buffered writes is
	// a write failure and must be checked.
	Close() error
	// Size returns the file's current length.
	Size() (int64, error)
}

// OS is the real filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) MkdirAll(path string) error { return os.MkdirAll(path, 0o755) }

func (osFS) Append(path string) (File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (osFS) Create(path string) (File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (osFS) Rename(oldPath, newPath string) error { return os.Rename(oldPath, newPath) }

func (osFS) SyncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

func (osFS) Truncate(path string, size int64) error { return os.Truncate(path, size) }

func (osFS) Remove(path string) error { return os.Remove(path) }

func (osFS) RemoveAll(path string) error { return os.RemoveAll(path) }

type osFile struct{ f *os.File }

func (o osFile) Write(p []byte) (int, error) { return o.f.Write(p) }
func (o osFile) Sync() error                 { return o.f.Sync() }
func (o osFile) Close() error                { return o.f.Close() }

func (o osFile) Size() (int64, error) {
	info, err := o.f.Stat()
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}
