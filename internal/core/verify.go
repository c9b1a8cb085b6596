package core

import (
	"fmt"
	"os"
	"sort"
)

// VerifyReport summarizes an integrity check of one array.
type VerifyReport struct {
	Array    string
	Versions int
	Chunks   int
	// Problems lists every integrity violation found; empty means the
	// array is fully readable and internally consistent.
	Problems []string
	// ChainDepths maps version ID to the length of its longest chunk
	// delta chain (1 = materialized).
	ChainDepths map[int]int
	// DanglingBytes counts bytes in chunk files not referenced by any
	// live version (reclaimable by Compact).
	DanglingBytes int64
}

// Ok reports whether the check found no problems.
func (r VerifyReport) Ok() bool { return len(r.Problems) == 0 }

// Verify runs an offline integrity check of one array: every live
// version's metadata must reference readable, decodable chunk payloads;
// every delta base must itself be a live version (no dangling or cyclic
// chains); and every chunk of the schema's chunk grid must be present in
// every version. It also measures delta-chain depths and space
// reclaimable by Compact.
//
// It checks an uncached snapshot with Store.mu released: every payload
// is read from disk, never from the chunk cache, so a corrupt frame is
// reported however warm the cache is, and like any select the decode
// holds only a pin on the array's generation.
func (s *Store) Verify(name string) (VerifyReport, error) {
	view, release, err := s.snapshotUncached(name)
	if err != nil {
		return VerifyReport{}, err
	}
	defer release()
	st := view.st
	rep := VerifyReport{Array: name, ChainDepths: map[int]int{}, Versions: len(view.ids)}
	ck, err := st.chunker()
	if err != nil {
		return rep, err
	}
	var origins [][]int64
	var wantKeys []string
	if st.SparseRep {
		wantKeys = []string{"chunk-full"}
	} else if len(view.ids) > 0 { // a grid no version fills is not enumerated
		origins = ck.All()
		for _, origin := range origins {
			wantKeys = append(wantKeys, ck.Key(origin))
		}
	}
	type fileRange struct{ off, end int64 }
	used := map[string][]fileRange{}
	for _, id := range view.ids {
		vm := view.byID[id]
		for _, attr := range st.Schema.Attrs {
			chunks := vm.Chunks[attr.Name]
			for _, key := range wantKeys {
				e, ok := chunks[key]
				if !ok {
					rep.Problems = append(rep.Problems,
						fmt.Sprintf("version %d: missing chunk %s/%s", vm.ID, attr.Name, key))
					continue
				}
				rep.Chunks++
				if _, live := view.byID[e.Base]; e.Base >= 0 && !live {
					rep.Problems = append(rep.Problems,
						fmt.Sprintf("version %d: chunk %s/%s delta-based on non-live version %d", vm.ID, attr.Name, key, e.Base))
				}
				used[e.File] = append(used[e.File], fileRange{e.Offset, e.Offset + frameLen(e.Length)})
			}
			// delta-chain depth and cycle detection per chunk
			for _, key := range wantKeys {
				depth, cyclic := chainDepth(view, attr.Name, key, vm.ID, len(view.ids))
				if cyclic {
					rep.Problems = append(rep.Problems,
						fmt.Sprintf("version %d: chunk %s/%s has a cyclic or overlong delta chain", vm.ID, attr.Name, key))
				}
				if depth > rep.ChainDepths[vm.ID] {
					rep.ChainDepths[vm.ID] = depth
				}
			}
		}
		// decodability, chunk by chunk: memory is bounded by what the files
		// back, not the declared plane; nil trackers keep stage stats clean
		for _, attr := range st.Schema.Attrs {
			var err error
			if st.SparseRep {
				_, _, err = s.resolveSparse(view, vm.ID, attr.Name, nil, 0, nil)
			}
			for i := 0; err == nil && i < len(origins); i++ {
				_, err = s.resolveDenseChunk(view, vm.ID, attr.Name, ck, origins[i], nil, false, nil)
			}
			if err != nil {
				rep.Problems = append(rep.Problems,
					fmt.Sprintf("version %d: attribute %s unreadable: %v", vm.ID, attr.Name, err))
			}
		}
	}
	// dangling bytes: file sizes minus referenced ranges
	entries, err := os.ReadDir(view.gen.dir)
	if err != nil {
		return rep, err
	}
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		info, err := ent.Info()
		if err != nil {
			continue
		}
		ranges := used[ent.Name()]
		sort.Slice(ranges, func(a, b int) bool { return ranges[a].off < ranges[b].off })
		covered := int64(0)
		cursor := int64(0)
		for _, r := range ranges {
			if r.end <= cursor {
				continue
			}
			start := r.off
			if start < cursor {
				start = cursor
			}
			covered += r.end - start
			cursor = r.end
		}
		if info.Size() > covered {
			rep.DanglingBytes += info.Size() - covered
		}
		if covered > info.Size() {
			rep.Problems = append(rep.Problems,
				fmt.Sprintf("file %s: metadata references %d bytes but file has %d", ent.Name(), covered, info.Size()))
		}
	}
	return rep, nil
}

// chainDepth walks a chunk's delta chain, returning its length and
// whether it is cyclic/overlong. v is a readView or an arrayState.
func chainDepth(v interface {
	version(id int) (*versionMeta, error)
}, attr, key string, id, maxDepth int) (int, bool) {
	depth := 0
	for {
		depth++
		if depth > maxDepth {
			return depth, true
		}
		vm, err := v.version(id)
		if err != nil {
			return depth, true
		}
		e, ok := vm.Chunks[attr][key]
		if !ok {
			return depth, true
		}
		if e.Base < 0 {
			return depth, false
		}
		id = e.Base
	}
}
