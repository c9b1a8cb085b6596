package fsio

import "errors"

// Read-only whole-file mappings. The store does not use them: it reads
// every chunk frame with pread (see internal/core io.go). Map remains as
// a probe of the platform's mapping cost. It is a package-level function
// rather than an FS method because fault injection only intercepts
// mutations. A Mapping stays valid across rename and unlink of the
// underlying file; callers must not touch Bytes() after Close.

// ErrMapUnsupported is returned by Map on platforms without mmap
// support.
var ErrMapUnsupported = errors.New("fsio: file mapping not supported on this platform")

// Mapping is a read-only byte view of one whole file. The view is
// fixed-length: bytes appended to the file after Map are not visible
// (callers re-Map when they need a longer view).
type Mapping interface {
	// Bytes returns the mapped contents. The slice must be treated as
	// immutable and must not be referenced after Close.
	Bytes() []byte
	// Close releases the mapping. Idempotent.
	Close() error
}

// MapSupported reports whether Map creates real kernel mappings on
// this platform. When false, Map always returns ErrMapUnsupported.
func MapSupported() bool { return mapSupported }

// Map maps path read-only in its entirety.
func Map(path string) (Mapping, error) { return mapFile(path) }
