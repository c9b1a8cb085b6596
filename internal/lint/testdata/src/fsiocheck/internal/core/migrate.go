package core

import "os"

// the offline migration gets no exemption for being offline: its fault
// matrix needs to see every mutation too
func migrateCleanup(dir string) error {
	return os.RemoveAll(dir) // want `os\.RemoveAll bypasses the fsio\.FS durability boundary`
}
