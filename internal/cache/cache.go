// Package cache provides the store-wide decoded-chunk cache: a
// byte-bounded, sharded LRU of reconstructed chunk contents keyed by
// (array, generation, version, attribute, chunk). The select path's dominant
// cost is unwinding delta chains (§II-B, Fig. 2); keeping the chunks
// queries asked for resident lets repeated queries skip the chain walk
// entirely, and queries for their descendants start part-way down it.
//
// Entries are immutable by convention: callers must never mutate a value
// after Put or a value returned by Get. The generation component of the
// key names the chunk directory the value was decoded from; the store
// never reuses a generation id, so an entry of a retired generation can
// never be served from a later one, and InvalidateGen sweeps a retired
// generation's entries out once nothing can add to them.
package cache

import (
	"sync"
	"sync/atomic"
)

// Key identifies one decoded chunk of one version of one array. Gen is
// the store-unique id of the chunk generation the chunk was decoded
// from; ids are never reused, so an entry written by a reader of a
// retired generation is never found by a reader of another one.
type Key struct {
	Array   string
	Gen     uint64
	Version int
	Attr    string
	Chunk   string
}

// Value is a cached decoded chunk. *array.Dense and *array.Sparse both
// satisfy it.
type Value interface {
	SizeBytes() int64
}

// Stats is a snapshot of the cache counters. Hits/Misses/Evictions/
// Invalidations/Rejected are cumulative since the last ResetCounters;
// Bytes and Entries reflect current residency. Rejected counts values
// too large to admit — a persistently climbing Rejected means the
// byte budget is under-provisioned for the workload's decoded chunks.
type Stats struct {
	Hits          int64
	Misses        int64
	Evictions     int64
	Invalidations int64
	Rejected      int64
	Bytes         int64
	Entries       int64
}

const numShards = 16

// Cache is a sharded LRU bounded by total byte size. A nil *Cache is a
// valid, always-missing cache, so callers can treat "caching disabled"
// uniformly.
type Cache struct {
	shardBytes int64
	shards     [numShards]shard

	hits          atomic.Int64
	misses        atomic.Int64
	evictions     atomic.Int64
	invalidations atomic.Int64
	rejected      atomic.Int64
}

type shard struct {
	mu    sync.Mutex
	items map[Key]*entry
	// intrusive LRU list: root.next is most recent, root.prev is least.
	root  entry
	bytes int64
}

type entry struct {
	key        Key
	val        Value
	size       int64
	prev, next *entry
}

// New returns a cache bounded by maxBytes, or nil when maxBytes <= 0
// (caching disabled).
func New(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		return nil
	}
	per := maxBytes / numShards
	if per < 1 {
		per = 1
	}
	c := &Cache{shardBytes: per}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.items = make(map[Key]*entry)
		sh.root.prev = &sh.root
		sh.root.next = &sh.root
	}
	return c
}

// fnv-1a over the key fields; cheap and allocation-free.
func shardIndex(k Key) int {
	h := uint64(14695981039346656037)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
	}
	mix(k.Array)
	mix(k.Attr)
	mix(k.Chunk)
	h ^= uint64(k.Version)
	h *= 1099511628211
	h ^= k.Gen
	h *= 1099511628211
	return int(h % numShards)
}

func (sh *shard) unlink(e *entry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

func (sh *shard) pushFront(e *entry) {
	e.next = sh.root.next
	e.prev = &sh.root
	sh.root.next.prev = e
	sh.root.next = e
}

// Get returns the cached value for k, marking it most recently used.
func (c *Cache) Get(k Key) (Value, bool) {
	if c == nil {
		return nil, false
	}
	sh := &c.shards[shardIndex(k)]
	sh.mu.Lock()
	e, ok := sh.items[k]
	if !ok {
		sh.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	sh.unlink(e)
	sh.pushFront(e)
	v := e.val
	sh.mu.Unlock()
	c.hits.Add(1)
	return v, true
}

// Put inserts or refreshes k and reports whether the value was admitted.
// Values larger than a shard's byte budget (1/16 of the total) are not
// cached at all — they would evict everything for one entry — and count
// toward Stats().Rejected.
func (c *Cache) Put(k Key, v Value) bool {
	if c == nil || v == nil {
		return false
	}
	size := v.SizeBytes()
	if size > c.shardBytes {
		c.rejected.Add(1)
		return false
	}
	sh := &c.shards[shardIndex(k)]
	sh.mu.Lock()
	if e, ok := sh.items[k]; ok {
		sh.bytes += size - e.size
		e.val, e.size = v, size
		sh.unlink(e)
		sh.pushFront(e)
	} else {
		e := &entry{key: k, val: v, size: size}
		sh.items[k] = e
		sh.pushFront(e)
		sh.bytes += size
	}
	evicted := int64(0)
	for sh.bytes > c.shardBytes && sh.root.prev != &sh.root {
		lru := sh.root.prev
		sh.unlink(lru)
		delete(sh.items, lru.key)
		sh.bytes -= lru.size
		evicted++
	}
	sh.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(evicted)
	}
	return true
}

// InvalidateGen removes every entry of one chunk generation. The store
// calls it when the generation's last reader is gone, so nothing adds
// to it afterwards.
func (c *Cache) InvalidateGen(gen uint64) {
	c.invalidate(func(k Key) bool { return k.Gen == gen })
}

// InvalidateVersion removes every entry of one version of the named
// array, across all generations, leaving the rest of the array's warm cache
// intact. Used by DeleteVersion, where surviving versions' decoded
// content is unchanged.
func (c *Cache) InvalidateVersion(array string, version int) {
	c.invalidate(func(k Key) bool { return k.Array == array && k.Version == version })
}

func (c *Cache) invalidate(match func(Key) bool) {
	if c == nil {
		return
	}
	removed := int64(0)
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for k, e := range sh.items {
			if !match(k) {
				continue
			}
			sh.unlink(e)
			delete(sh.items, k)
			sh.bytes -= e.size
			removed++
		}
		sh.mu.Unlock()
	}
	if removed > 0 {
		c.invalidations.Add(removed)
	}
}

// Stats returns a snapshot of the counters and current residency.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	s := Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
		Rejected:      c.rejected.Load(),
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		s.Bytes += sh.bytes
		s.Entries += int64(len(sh.items))
		sh.mu.Unlock()
	}
	return s
}

// ResetCounters zeroes the cumulative counters, leaving residency alone.
func (c *Cache) ResetCounters() {
	if c == nil {
		return
	}
	c.hits.Store(0)
	c.misses.Store(0)
	c.evictions.Store(0)
	c.invalidations.Store(0)
	c.rejected.Store(0)
}
