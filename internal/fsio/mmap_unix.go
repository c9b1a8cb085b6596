//go:build unix

package fsio

import (
	"fmt"
	"os"
	"sync"
	"syscall"
)

const mapSupported = true

// mmapMapping is a syscall.Mmap-backed Mapping. The mutex only guards
// Close against double-release; Bytes takes no lock, so callers must not
// race Bytes with Close.
type mmapMapping struct {
	mu   sync.Mutex
	data []byte
}

func (m *mmapMapping) Bytes() []byte { return m.data }

func (m *mmapMapping) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.data == nil {
		return nil
	}
	data := m.data
	m.data = nil
	if len(data) == 0 {
		return nil
	}
	return syscall.Munmap(data)
}

func mapFile(path string) (Mapping, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }() // read-only handle; the mapping outlives it
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := info.Size()
	if size == 0 {
		// mmap(len=0) is EINVAL; an empty file maps to an empty view
		return &mmapMapping{data: []byte{}}, nil
	}
	if int64(int(size)) != size {
		return nil, fmt.Errorf("fsio: %s is too large to map (%d bytes)", path, size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("fsio: mmap %s: %w", path, err)
	}
	return &mmapMapping{data: data}, nil
}
