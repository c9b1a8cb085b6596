package cliutil

import (
	"reflect"
	"regexp"
	"strconv"
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

// TestWriteStats derives the expected lines from IOStats itself:
// every field but MmapReads prints exactly once, under its snake_case
// name and with its own value.
func TestWriteStats(t *testing.T) {
	var st core.IOStats
	v := reflect.ValueOf(&st).Elem()
	for i := range v.NumField() {
		v.Field(i).SetInt(int64(1000 + i))
	}
	var b strings.Builder
	WriteStats(&b, st)
	lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	if len(lines) != v.NumField()-1 {
		t.Errorf("WriteStats printed %d lines for %d IOStats fields (MmapReads is left out)", len(lines), v.NumField())
	}
	word := regexp.MustCompile(`[A-Z][a-z]*`)
	for i := range v.NumField() {
		f := v.Type().Field(i)
		var name []string
		for _, m := range word.FindAllString(f.Name, -1) {
			name = append(name, strings.ToLower(m))
		}
		want := strings.Join(name, "_")
		n := 0
		for _, line := range lines {
			if fields := strings.Fields(line); fields[0] == want {
				n++
				if fields[1] != strconv.Itoa(1000+i) {
					t.Errorf("line %q: want %s %d", line, want, 1000+i)
				}
			}
		}
		switch {
		case f.Name == "MmapReads" && n != 0:
			t.Errorf("mmap_reads printed")
		case f.Name != "MmapReads" && n != 1:
			t.Errorf("%s printed %d times, want once", want, n)
		}
	}
}
