// Package fsio mirrors the store's filesystem seam for the lockorder
// fixture: every method call on FS or File is an I/O seam.
package fsio

type FS interface {
	Append(path string) (File, error)
	Remove(path string) error
}

type File interface {
	Sync() error
	Close() error
}
