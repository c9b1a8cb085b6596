package core

import "os"

// a cleanup that runs only at open gets no exemption for running once:
// the fault matrix needs to see every mutation
func sweepCleanup(dir string) error {
	return os.RemoveAll(dir) // want `os\.RemoveAll bypasses the fsio\.FS durability boundary`
}
