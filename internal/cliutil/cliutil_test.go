package cliutil

import (
	"strings"
	"testing"

	"arrayvers/internal/array"
	"arrayvers/internal/core"
)

func TestBoxRoundTrip(t *testing.T) {
	box := array.NewBox([]int64{-3, 0, 7}, []int64{5, 16, 9})
	got, err := ParseBox(FormatBox(box))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(box) {
		t.Fatalf("round trip: %v != %v", got, box)
	}
	for _, bad := range []string{"", "1,2", "1:2:3", "a,0:1,1"} {
		if _, err := ParseBox(bad); err == nil {
			t.Errorf("ParseBox(%q) accepted", bad)
		}
	}
}

func TestParsePolicyMatchesString(t *testing.T) {
	// every policy's String() must parse back to itself, so the client
	// and server agree on the names
	policies := []core.LayoutPolicy{
		core.PolicyOptimal, core.PolicyAlgorithm1, core.PolicyAlgorithm2,
		core.PolicyLinearChain, core.PolicyHeadBiased, core.PolicyWorkloadAware,
	}
	for _, p := range policies {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("ParsePolicy accepted bogus")
	}
}

func TestStoreOptions(t *testing.T) {
	opts := StoreOptions(1<<20, 3, true)
	if opts.CacheBytes != 1<<20 || opts.Parallelism != 3 || !opts.Durability {
		t.Fatalf("opts: %+v", opts)
	}
	// zero values preserve the paper defaults
	def := StoreOptions(0, 0, false)
	if def.CacheBytes != 0 || def.ChunkBytes != core.DefaultOptions().ChunkBytes || def.Durability {
		t.Fatalf("defaults: %+v", def)
	}
}

func TestStatsCounters(t *testing.T) {
	st := core.IOStats{BytesRead: 1, CacheHits: 2, CacheEntries: 3}
	var b strings.Builder
	WriteStats(&b, st)
	out := b.String()
	for _, want := range []string{"bytes_read", "cache_hits", "cache_entries"} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteStats output missing %q", want)
		}
	}
	if len(StatsCounters(st)) != 28 {
		t.Errorf("StatsCounters: %d entries", len(StatsCounters(st)))
	}
}
