package cache

import (
	"fmt"
	"testing"
)

// fakeVal is a Value of a declared size.
type fakeVal int64

func (v fakeVal) SizeBytes() int64 { return int64(v) }

func key(arr string, version int) Key {
	return Key{Array: arr, Version: version, Attr: "A", Chunk: "chunk-0-0"}
}

func TestNilCacheIsSafe(t *testing.T) {
	var c *Cache
	if c := New(0); c != nil {
		t.Fatal("New(0) should disable the cache")
	}
	c.Put(key("a", 1), fakeVal(10))
	if _, ok := c.Get(key("a", 1)); ok {
		t.Fatal("nil cache returned a hit")
	}
	c.InvalidateGen(0)
	c.ResetCounters()
	if s := c.Stats(); s != (Stats{}) {
		t.Fatalf("nil cache stats = %+v", s)
	}
}

func TestGetPutAndCounters(t *testing.T) {
	c := New(1 << 20)
	k := key("a", 1)
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(k, fakeVal(100))
	got, ok := c.Get(k)
	if !ok || got.(fakeVal) != 100 {
		t.Fatalf("get = %v, %v", got, ok)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 || s.Bytes != 100 {
		t.Fatalf("stats = %+v", s)
	}
	c.ResetCounters()
	s = c.Stats()
	if s.Hits != 0 || s.Misses != 0 {
		t.Fatalf("stats after reset = %+v", s)
	}
	if s.Entries != 1 || s.Bytes != 100 {
		t.Fatalf("reset dropped residency: %+v", s)
	}
}

func TestPutRefreshAdjustsBytes(t *testing.T) {
	c := New(1 << 20)
	k := key("a", 1)
	c.Put(k, fakeVal(100))
	c.Put(k, fakeVal(40))
	s := c.Stats()
	if s.Entries != 1 || s.Bytes != 40 {
		t.Fatalf("stats after refresh = %+v", s)
	}
}

// sameShardKeys returns n distinct keys that all map to one shard, so
// LRU ordering is observable deterministically.
func sameShardKeys(n int) []Key {
	want := -1
	var out []Key
	for i := 0; len(out) < n; i++ {
		k := key("lru", i)
		idx := shardIndex(k)
		if want < 0 {
			want = idx
		}
		if idx == want {
			out = append(out, k)
		}
	}
	return out
}

func TestEvictionIsLRUAndByteBounded(t *testing.T) {
	// budget of 100 bytes per shard (16 shards x 100)
	c := New(16 * 100)
	keys := sameShardKeys(12)
	// 30-byte entries: a shard holds 3
	c.Put(keys[0], fakeVal(30))
	c.Put(keys[1], fakeVal(30))
	c.Put(keys[2], fakeVal(30))
	// touch the oldest so it becomes most-recent
	if _, ok := c.Get(keys[0]); !ok {
		t.Fatal("keys[0] missing before overflow")
	}
	// overflow: the LRU entry is now keys[1]
	c.Put(keys[3], fakeVal(30))
	if _, ok := c.Get(keys[1]); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, ok := c.Get(keys[0]); !ok {
		t.Fatal("recently-used entry was evicted")
	}
	s := c.Stats()
	if s.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", s.Evictions)
	}
	// keep inserting; the byte bound must hold throughout
	for i := 4; i < 12; i++ {
		c.Put(keys[i], fakeVal(30))
		if got := c.Stats().Bytes; got > 16*100 {
			t.Fatalf("cache grew to %d bytes, budget 1600", got)
		}
	}
}

func TestOversizedValueNotCached(t *testing.T) {
	c := New(16 * 100) // 100 bytes per shard
	if c.Put(key("a", 1), fakeVal(101)) {
		t.Fatal("oversized value reported as admitted")
	}
	s := c.Stats()
	if s.Entries != 0 {
		t.Fatalf("oversized value was cached: %+v", s)
	}
	if s.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", s.Rejected)
	}
	if !c.Put(key("a", 2), fakeVal(100)) {
		t.Fatal("fitting value reported as rejected")
	}
}

func TestInvalidateGenScopesToGen(t *testing.T) {
	c := New(1 << 20)
	for v := 0; v < 20; v++ {
		old, cur := key("a", v), key("a", v)
		old.Gen, cur.Gen = 1, 2
		c.Put(old, fakeVal(10))
		c.Put(cur, fakeVal(10))
	}
	c.InvalidateGen(1)
	for v := 0; v < 20; v++ {
		old, cur := key("a", v), key("a", v)
		old.Gen, cur.Gen = 1, 2
		if _, ok := c.Get(old); ok {
			t.Fatalf("gen 1 version %d survived invalidation", v)
		}
		if _, ok := c.Get(cur); !ok {
			t.Fatalf("gen 2 version %d was wrongly invalidated", v)
		}
	}
	s := c.Stats()
	if s.Invalidations != 20 {
		t.Fatalf("invalidations = %d, want 20", s.Invalidations)
	}
	if s.Bytes != 200 || s.Entries != 20 {
		t.Fatalf("residency after invalidation = %+v", s)
	}
}

func TestEpochSeparatesGenerations(t *testing.T) {
	c := New(1 << 20)
	old := Key{Array: "a", Gen: 1, Version: 1, Attr: "A", Chunk: "chunk-0-0"}
	cur := old
	cur.Gen = 2
	c.Put(old, fakeVal(10))
	if _, ok := c.Get(cur); ok {
		t.Fatal("entry cached under generation 1 served to a generation-2 reader")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(1 << 16)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 500; i++ {
				k := key(fmt.Sprintf("arr%d", i%3), i%50)
				c.Put(k, fakeVal(64))
				c.Get(k)
				if i%100 == 0 {
					c.InvalidateVersion("arr0", i%50)
				}
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}
