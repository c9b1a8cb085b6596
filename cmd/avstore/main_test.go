package main

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"arrayvers"
	"arrayvers/internal/array"
)

func TestParseSchema(t *testing.T) {
	sch, err := parseSchema("A", "Y:0:255,X:0:127", "V:float32,W:int64")
	if err != nil {
		t.Fatal(err)
	}
	if len(sch.Dims) != 2 || sch.Dims[0].Hi != 255 || sch.Dims[1].Size() != 128 {
		t.Fatalf("dims: %+v", sch.Dims)
	}
	if len(sch.Attrs) != 2 || sch.Attrs[0].Type != arrayvers.Float32 || sch.Attrs[1].Type != arrayvers.Int64 {
		t.Fatalf("attrs: %+v", sch.Attrs)
	}
	bad := [][3]string{
		{"", "Y:0:1", "V:int32"},
		{"A", "", "V:int32"},
		{"A", "Y:0:1", ""},
		{"A", "Y:0", "V:int32"},
		{"A", "Y:x:1", "V:int32"},
		{"A", "Y:0:1", "V"},
		{"A", "Y:0:1", "V:bogus"},
		{"A", "Y:1:0", "V:int32"},
	}
	for _, b := range bad {
		if _, err := parseSchema(b[0], b[1], b[2]); err == nil {
			t.Errorf("parseSchema(%q,%q,%q) accepted", b[0], b[1], b[2])
		}
	}
}

func TestParseBox(t *testing.T) {
	box, err := parseBox("0,0:16,16")
	if err != nil {
		t.Fatal(err)
	}
	if box.Lo[0] != 0 || box.Hi[1] != 16 {
		t.Fatalf("box: %v", box)
	}
	for _, b := range []string{"", "1,2", "1:2:3", "a,0:1,1"} {
		if _, err := parseBox(b); err == nil {
			t.Errorf("parseBox(%q) accepted", b)
		}
	}
}

func TestParsePolicy(t *testing.T) {
	for name, want := range map[string]arrayvers.LayoutPolicy{
		"optimal": arrayvers.PolicyOptimal, "algorithm1": arrayvers.PolicyAlgorithm1,
		"algorithm2": arrayvers.PolicyAlgorithm2, "linear": arrayvers.PolicyLinearChain,
		"head": arrayvers.PolicyHeadBiased,
	} {
		got, err := parsePolicy(name)
		if err != nil || got != want {
			t.Errorf("parsePolicy(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := parsePolicy("nope"); err == nil {
		t.Error("bogus policy accepted")
	}
}

func TestParseWorkloadSpec(t *testing.T) {
	qs, err := parseWorkloadSpec("1*50,3-8*10,4")
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 3 {
		t.Fatalf("got %d queries: %v", len(qs), qs)
	}
	if qs[0].Weight != 50 || len(qs[0].Versions) != 1 || qs[0].Versions[0] != 1 {
		t.Fatalf("snapshot term: %+v", qs[0])
	}
	if qs[1].Weight != 10 || len(qs[1].Versions) != 6 || qs[1].Versions[5] != 8 {
		t.Fatalf("range term: %+v", qs[1])
	}
	if qs[2].Weight != 1 || qs[2].Versions[0] != 4 {
		t.Fatalf("default-weight term: %+v", qs[2])
	}
	for _, bad := range []string{"", "x*2", "3-1*2", "1*-2", "1*0", "2-x"} {
		if _, err := parseWorkloadSpec(bad); err == nil {
			t.Errorf("parseWorkloadSpec(%q) accepted", bad)
		}
	}
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "store")
	// generate a payload file
	d := array.MustDense(array.Int32, []int64{4, 4})
	for i := int64(0); i < 16; i++ {
		d.SetBits(i, i)
	}
	payload := filepath.Join(dir, "v.dat")
	if err := os.WriteFile(payload, array.MarshalDense(d), 0o644); err != nil {
		t.Fatal(err)
	}
	steps := [][]string{
		{"-store", store, "create", "-name", "A", "-dims", "Y:0:3,X:0:3", "-attrs", "V:int32"},
		{"-store", store, "load", "-name", "A", "-file", payload},
		{"-store", store, "load", "-name", "A", "-file", payload},
		{"-store", store, "versions", "-name", "A"},
		{"-store", store, "info", "-name", "A"},
		{"-store", store, "list"},
		{"-store", store, "select", "-name", "A", "-version", "2"},
		{"-store", store, "select", "-name", "A", "-version", "1", "-box", "0,0:2,2", "-out", filepath.Join(dir, "out.dat")},
		{"-store", store, "reorganize", "-name", "A", "-policy", "optimal"},
		{"-store", store, "tune", "-name", "A", "-spec", "1*20,1-2*5"},
		{"-store", store, "verify", "-name", "A"},
		{"-store", store, "delete-version", "-name", "A", "-version", "1"},
		{"-store", store, "drop", "-name", "A"},
	}
	for _, args := range steps {
		if err := run(args); err != nil {
			t.Fatalf("avstore %v: %v", args, err)
		}
	}
	// the exported region must be loadable
	raw, err := os.ReadFile(filepath.Join(dir, "out.dat"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := array.UnmarshalDense(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Shape()[0] != 2 || got.BitsAt([]int64{1, 1}) != 5 {
		t.Fatalf("exported region wrong: %v", got.Shape())
	}
	// error paths
	if err := run([]string{"-store", store, "bogus"}); err == nil {
		t.Error("unknown command accepted")
	}
	if err := run([]string{"-store", store}); err == nil {
		t.Error("missing command accepted")
	}
}

// TestRefusesOtherFormat drives the CLI over the checked-in legacy
// fixture (per-array versions.json, no CURRENT): every subcommand
// refuses the directory with the format error, which names the format
// found and the one expected.
func TestRefusesOtherFormat(t *testing.T) {
	src := filepath.Join("..", "..", "internal", "core", "testdata", "legacy", "store")
	dir := filepath.Join(t.TempDir(), "store")
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dir, rel), 0o755)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, rel), raw, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-store", dir, "list"},
		{"-store", dir, "-durable", "fsck"},
		{"-store", dir, "versions", "-name", "Raw"},
	} {
		err := run(args)
		if !errors.Is(err, arrayvers.ErrFormat) {
			t.Fatalf("avstore %v on a legacy directory: %v, want ErrFormat", args, err)
		}
		msg := err.Error()
		if !strings.Contains(msg, "per-array versions.json, no CURRENT") || !strings.Contains(msg, "want format 1") || strings.Contains(msg, "migrate") {
			t.Fatalf("avstore %v: %q does not name the format found and the one expected", args, msg)
		}
	}
}

// TestReorganizeWorkloadSpec checks that reorganize -policy workload
// lays the array out for the -spec workload rather than as Algorithm 2
// would: Algorithm 2 materializes the oldest version and deltas the
// rest forward, so with the newest version hot a cold read of it reads
// fewer bytes than under Algorithm 2. The workload policy and tune without a
// spec are refused.
func TestReorganizeWorkloadSpec(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(1))
	d := array.MustDense(array.Int32, []int64{64, 64})
	for i := int64(0); i < d.NumCells(); i++ {
		d.SetBits(i, rng.Int63n(1000))
	}
	var files []string
	for v := 0; v < 6; v++ {
		for i := int64(0); i < d.NumCells(); i++ {
			if rng.Float64() < 0.1 {
				d.SetBits(i, d.Bits(i)+rng.Int63n(5)-2)
			}
		}
		f := filepath.Join(dir, fmt.Sprintf("v%d.dat", v+1))
		if err := os.WriteFile(f, array.MarshalDense(d), 0o644); err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	coldRead := func(policy string, extra ...string) int64 {
		t.Helper()
		store := filepath.Join(dir, policy)
		steps := [][]string{{"-store", store, "create", "-name", "A", "-dims", "Y:0:63,X:0:63", "-attrs", "V:int32"}}
		for _, f := range files {
			steps = append(steps, []string{"-store", store, "load", "-name", "A", "-file", f})
		}
		steps = append(steps, append([]string{"-store", store, "reorganize", "-name", "A", "-policy", policy}, extra...))
		for _, args := range steps {
			if err := run(args); err != nil {
				t.Fatalf("avstore %v: %v", args, err)
			}
		}
		s, err := arrayvers.Open(store, arrayvers.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if _, err := s.Select("A", 6); err != nil {
			t.Fatal(err)
		}
		return s.Stats().BytesRead
	}
	alg2 := coldRead("algorithm2")
	hot := coldRead("workload", "-spec", "6*100,1-5*1")
	t.Logf("cold read of version 6: %d bytes under algorithm2, %d under the workload layout", alg2, hot)
	if hot >= alg2 {
		t.Fatalf("-policy workload -spec 6*100 reads %d bytes for version 6, Algorithm 2 %d: the spec was not applied", hot, alg2)
	}
	store := filepath.Join(dir, "algorithm2")
	for _, args := range [][]string{
		{"-store", store, "reorganize", "-name", "A", "-policy", "workload"},
		{"-store", store, "tune", "-name", "A"},
	} {
		if err := run(args); err == nil || !strings.Contains(err.Error(), "-spec") {
			t.Errorf("avstore %v: %v, want an error asking for -spec", args, err)
		}
	}
}
