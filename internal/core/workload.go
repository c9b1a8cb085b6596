package core

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"

	"arrayvers/internal/layout"
)

// Workload statistics collection for the adaptive reorganizer (§IV-D
// closed-loop): every successful select records the set of versions it
// accessed into a per-array histogram of access patterns. The background
// tuner (tuner.go) periodically snapshots the histogram as weighted
// layout queries, estimates the I/O cost of the current layout against
// the workload-aware one, and triggers a reorganization when the
// projected savings clear a threshold.
//
// The recorder is deliberately lock-cheap on the select hot path: each
// record touches one shard mutex chosen by a hash of the access pattern,
// so concurrent selects with different patterns never contend. Weights
// decay multiplicatively on every tuner pass (AutoTuneOptions.Decay), so
// the histogram is an exponentially decayed view of recent traffic
// rather than an all-time count, and a shifted workload re-tunes.

const (
	// workloadShards is the per-array shard count; patterns hash across
	// shards so concurrent recorders rarely share a mutex.
	workloadShards = 16
	// maxPatternsPerShard bounds the histogram's memory: when a shard
	// fills up, the lowest-weight pattern is evicted (decay makes cold
	// patterns sink to the bottom first).
	maxPatternsPerShard = 64
)

// workloadEntry is one recorded access pattern: the ordered version set
// one query touched, with its decayed access weight.
type workloadEntry struct {
	versions []int
	weight   float64
}

// workloadShard is one lock-striped slice of an array's histogram.
type workloadShard struct {
	mu   sync.Mutex
	pats map[string]*workloadEntry
}

// arrayRecorder is one array's sharded access histogram. Its zero value
// is ready to use: each shard creates its map on first record.
type arrayRecorder struct {
	shards [workloadShards]workloadShard
	ops    atomic.Int64 // cumulative recorded read ops (not decayed)
}

// patternKey canonicalizes a version set; the ids arrive in query order
// and stay that way (two orderings of the same set are distinct patterns,
// matching workload.ToQueries semantics).
func patternKey(versions []int) (string, uint64) {
	h := fnv.New64a()
	b := make([]byte, 0, len(versions)*4)
	for _, v := range versions {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	_, _ = h.Write(b)
	return string(b), h.Sum64()
}

// record adds one observed access of the given version set with the
// given weight (selects record weight 1; RecordWorkload merges imported
// queries with their own weights).
func (ar *arrayRecorder) record(versions []int, weight float64) {
	if len(versions) == 0 || weight <= 0 {
		return
	}
	ar.ops.Add(1)
	key, h := patternKey(versions)
	sh := &ar.shards[h%workloadShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.pats[key]; ok {
		e.weight += weight
		return
	}
	if sh.pats == nil {
		sh.pats = make(map[string]*workloadEntry)
	} else if len(sh.pats) >= maxPatternsPerShard {
		evictColdest(sh.pats)
	}
	sh.pats[key] = &workloadEntry{versions: append([]int(nil), versions...), weight: weight}
}

// evictColdest removes the minimum-weight pattern from a full shard.
func evictColdest(pats map[string]*workloadEntry) {
	coldKey, coldW := "", 0.0
	first := true
	for k, e := range pats {
		if first || e.weight < coldW {
			coldKey, coldW, first = k, e.weight, false
		}
	}
	delete(pats, coldKey)
}

// queries snapshots the histogram as weighted layout queries (version
// values are version IDs) plus the total recorded weight. The result is
// sorted by descending weight so it is deterministic for a given
// histogram state.
func (ar *arrayRecorder) queries() ([]layout.Query, float64) {
	var out []layout.Query
	total := 0.0
	for i := range ar.shards {
		sh := &ar.shards[i]
		sh.mu.Lock()
		for _, e := range sh.pats {
			out = append(out, layout.Query{
				Versions: append([]int(nil), e.versions...),
				Weight:   e.weight,
			})
			total += e.weight
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Weight != out[b].Weight {
			return out[a].Weight > out[b].Weight
		}
		return lessVersions(out[a].Versions, out[b].Versions)
	})
	return out, total
}

func lessVersions(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// scale multiplies every weight by f (the tuner's per-pass exponential
// decay) and drops patterns whose weight has decayed to noise.
func (ar *arrayRecorder) scale(f float64) {
	const floor = 1e-6
	for i := range ar.shards {
		sh := &ar.shards[i]
		sh.mu.Lock()
		for k, e := range sh.pats {
			e.weight *= f
			if e.weight < floor {
				delete(sh.pats, k)
			}
		}
		sh.mu.Unlock()
	}
}

// patterns is the current number of distinct access patterns, for
// Stats().
func (ar *arrayRecorder) patterns() (n int64) {
	for i := range ar.shards {
		sh := &ar.shards[i]
		sh.mu.Lock()
		n += int64(len(sh.pats))
		sh.mu.Unlock()
	}
	return n
}

// --- public surface ---

// Workload returns the array's recorded access histogram as weighted
// queries (version values are version IDs), heaviest first. The weights
// are exponentially decayed by tuner passes, so they describe recent
// traffic; an array that has never been selected returns an empty slice.
func (s *Store) Workload(name string) ([]layout.Query, error) {
	s.mu.RLock()
	st, ok := s.arrays[name]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("core: no array %q", name)
	}
	wl, _ := st.workload.queries()
	return wl, nil
}

// RecordWorkload merges the given weighted queries into the array's
// recorded workload histogram, as if the accesses had been observed by
// the select path. It lets embedders and the avstore CLI seed the
// adaptive tuner with an a-priori workload (§IV-D) instead of waiting
// for live traffic.
func (s *Store) RecordWorkload(name string, queries []layout.Query) error {
	s.mu.RLock()
	st, ok := s.arrays[name]
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	if !ok {
		return fmt.Errorf("core: no array %q", name)
	}
	for _, q := range queries {
		st.workload.record(q.Versions, q.Weight)
	}
	return nil
}
