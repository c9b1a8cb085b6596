package core

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"arrayvers/internal/array"
	"arrayvers/internal/compress"
	"arrayvers/internal/layout"
)

func testStore(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// reopen closes s and opens its directory again with the same options:
// a store whose decoded-chunk cache is cold, since every committed write
// leaves its chunks in it.
func reopen(t *testing.T, s *Store) *Store {
	t.Helper()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(s.Dir(), s.opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// versionsOf is the version list of one Info snapshot.
func versionsOf(s *Store, name string) ([]VersionInfo, error) {
	info, err := s.Info(name)
	return info.Versions, err
}

func smallOpts() Options {
	o := DefaultOptions()
	o.ChunkBytes = 1 << 12 // 4 KB chunks so tests exercise multi-chunk paths
	return o
}

func schema2D(name string, n int64) array.Schema {
	return array.Schema{
		Name:  name,
		Dims:  []array.Dimension{{Name: "X", Lo: 0, Hi: n - 1}, {Name: "Y", Lo: 0, Hi: n - 1}},
		Attrs: []array.Attribute{{Name: "A", Type: array.Int32}},
	}
}

// compactIf puts array name in the compacted layout when compacted is
// set: Compact rewrites the frames written so far into a new data log
// one chunk column at a time, so each chunk's chain is one run of it,
// and later writes append after them. Tests run over both layouts label
// the compacted one coLocate=true and the log-resident one
// coLocate=false.
func compactIf(t testing.TB, s *Store, name string, compacted bool) {
	t.Helper()
	if !compacted {
		return
	}
	if err := s.Compact(name); err != nil {
		t.Fatalf("compact %s: %v", name, err)
	}
}

// evolvingVersions builds a smoothly evolving dense version series.
func evolvingVersions(n int, side int64, seed int64) []*array.Dense {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*array.Dense, n)
	cur := array.MustDense(array.Int32, []int64{side, side})
	for i := int64(0); i < cur.NumCells(); i++ {
		cur.SetBits(i, int64(rng.Intn(1000)))
	}
	for v := 0; v < n; v++ {
		out[v] = cur.Clone()
		for i := int64(0); i < cur.NumCells(); i++ {
			if rng.Float64() < 0.1 {
				cur.SetBits(i, cur.Bits(i)+int64(rng.Intn(5)-2))
			}
		}
	}
	return out
}

func TestCreateInsertSelectRoundtrip(t *testing.T) {
	s := testStore(t, smallOpts())
	if err := s.CreateArray(schema2D("Example", 50)); err != nil {
		t.Fatal(err)
	}
	versions := evolvingVersions(3, 50, 1)
	for i, v := range versions {
		id, err := s.Insert("Example", DensePayload(v))
		if err != nil {
			t.Fatal(err)
		}
		if id != i+1 {
			t.Fatalf("version id = %d, want %d", id, i+1)
		}
	}
	for i, want := range versions {
		got, err := s.Select("Example", i+1)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Dense.Equal(want) {
			t.Fatalf("version %d content mismatch", i+1)
		}
		// a zero box is the whole array
		whole, err := s.SelectRegion("Example", i+1, array.Box{})
		if err != nil || !whole.Dense.Equal(want) {
			t.Fatalf("SelectRegion with a zero box of version %d differs from Select: %v", i+1, err)
		}
	}
}

func TestNoOverwriteDeltaChainsSaveSpace(t *testing.T) {
	s := testStore(t, smallOpts())
	if err := s.CreateArray(schema2D("W", 64)); err != nil {
		t.Fatal(err)
	}
	versions := evolvingVersions(8, 64, 2)
	for _, v := range versions {
		if _, err := s.Insert("W", DensePayload(v)); err != nil {
			t.Fatal(err)
		}
	}
	info, err := s.Info("W")
	if err != nil {
		t.Fatal(err)
	}
	rawTotal := int64(8) * versions[0].SizeBytes()
	if info.DiskBytes >= rawTotal/2 {
		t.Fatalf("delta chains use %d bytes, raw would be %d", info.DiskBytes, rawTotal)
	}
	// all but the first version should be delta'ed
	infos := info.Versions
	for i, vi := range infos {
		if i == 0 && len(vi.DeltaBases) != 0 {
			t.Fatalf("first version has delta bases %v", vi.DeltaBases)
		}
		if i > 0 && len(vi.DeltaBases) == 0 {
			t.Fatalf("version %d not delta'ed", vi.ID)
		}
	}
}

func TestSelectRegionReadsOnlyOverlappingChunks(t *testing.T) {
	s := testStore(t, smallOpts())
	if err := s.CreateArray(schema2D("R", 64)); err != nil {
		t.Fatal(err)
	}
	v := evolvingVersions(1, 64, 3)[0]
	if _, err := s.Insert("R", DensePayload(v)); err != nil {
		t.Fatal(err)
	}
	s.ResetStats()
	// whole-array read
	if _, err := s.Select("R", 1); err != nil {
		t.Fatal(err)
	}
	full := s.Stats()
	s.ResetStats()
	// single-cell read
	got, err := s.SelectRegion("R", 1, array.NewBox([]int64{10, 10}, []int64{11, 11}))
	if err != nil {
		t.Fatal(err)
	}
	if got.Dense.NumCells() != 1 || got.Dense.Bits(0) != v.BitsAt([]int64{10, 10}) {
		t.Fatal("region content wrong")
	}
	sub := s.Stats()
	if sub.ChunksRead >= full.ChunksRead {
		t.Fatalf("subselect read %d chunks, full read %d", sub.ChunksRead, full.ChunksRead)
	}
	if sub.BytesRead >= full.BytesRead {
		t.Fatalf("subselect read %d bytes, full read %d", sub.BytesRead, full.BytesRead)
	}
}

func TestFig2ChainRead(t *testing.T) {
	// Fig. 2: three versions stored as 2x2 chunks, v3 delta'ed against
	// v2, v2 against v1; a query region overlapping 2 chunks must read
	// exactly 6 chunks (2 per version across the 3-version chain).
	o := smallOpts()
	o.ChunkBytes = 32 * 32 * 4 // 2x2 chunk grid on a 64x64 int32 array
	s := testStore(t, o)
	if err := s.CreateArray(schema2D("F", 64)); err != nil {
		t.Fatal(err)
	}
	versions := evolvingVersions(3, 64, 4)
	for _, v := range versions {
		if _, err := s.Insert("F", DensePayload(v)); err != nil {
			t.Fatal(err)
		}
	}
	s.ResetStats()
	// region spanning the two top chunks
	if _, err := s.SelectRegion("F", 3, array.NewBox([]int64{5, 5}, []int64{20, 60})); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().ChunksRead; got != 6 {
		t.Fatalf("chain read touched %d chunks, want 6 (Fig. 2)", got)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	opts := smallOpts()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateArray(schema2D("P", 40)); err != nil {
		t.Fatal(err)
	}
	versions := evolvingVersions(4, 40, 5)
	for _, v := range versions {
		if _, err := s.Insert("P", DensePayload(v)); err != nil {
			t.Fatal(err)
		}
	}
	// reopen
	s2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.ListArrays(); len(got) != 1 || got[0] != "P" {
		t.Fatalf("arrays after reopen: %v", got)
	}
	for i, want := range versions {
		got, err := s2.Select("P", i+1)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Dense.Equal(want) {
			t.Fatalf("version %d mismatch after reopen", i+1)
		}
	}
}

func TestDeltaListInsertForm(t *testing.T) {
	s := testStore(t, smallOpts())
	if err := s.CreateArray(schema2D("D", 30)); err != nil {
		t.Fatal(err)
	}
	base := evolvingVersions(1, 30, 6)[0]
	if _, err := s.Insert("D", DensePayload(base)); err != nil {
		t.Fatal(err)
	}
	id, err := s.Insert("D", DeltaListPayload(1, []CellUpdate{
		{Coords: []int64{3, 4}, Bits: 777},
		{Coords: []int64{29, 29}, Bits: -5},
	}))
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Select("D", id)
	if err != nil {
		t.Fatal(err)
	}
	want := base.Clone()
	want.SetBitsAt([]int64{3, 4}, 777)
	want.SetBitsAt([]int64{29, 29}, -5)
	if !got.Dense.Equal(want) {
		t.Fatal("delta-list insert content wrong")
	}
	// lineage records the base
	infos, _ := versionsOf(s, "D")
	if len(infos[1].Parents) != 1 || infos[1].Parents[0] != 1 {
		t.Fatalf("delta-list parents = %v", infos[1].Parents)
	}
	// errors
	if _, err := s.Insert("D", DeltaListPayload(99, nil)); err == nil {
		t.Error("missing base accepted")
	}
	if _, err := s.Insert("D", DeltaListPayload(1, []CellUpdate{{Coords: []int64{1}, Bits: 0}})); err == nil {
		t.Error("bad coords accepted")
	}
	if _, err := s.Insert("D", DeltaListPayload(1, []CellUpdate{{Attr: "Z", Coords: []int64{0, 0}, Bits: 0}})); err == nil {
		t.Error("unknown attr accepted")
	}
}

func TestSelectMultiStacking(t *testing.T) {
	s := testStore(t, smallOpts())
	if err := s.CreateArray(schema2D("M", 20)); err != nil {
		t.Fatal(err)
	}
	versions := evolvingVersions(3, 20, 7)
	for _, v := range versions {
		if _, err := s.Insert("M", DensePayload(v)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := s.SelectMulti("M", []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if st.NDim() != 3 || st.Shape()[0] != 2 {
		t.Fatalf("stack shape %v", st.Shape())
	}
	if st.BitsAt([]int64{0, 5, 5}) != versions[0].BitsAt([]int64{5, 5}) {
		t.Fatal("stack slab 0 wrong")
	}
	if st.BitsAt([]int64{1, 5, 5}) != versions[2].BitsAt([]int64{5, 5}) {
		t.Fatal("stack slab 1 wrong")
	}
	// region form (paper's SUBSAMPLE over Example@*)
	sub, err := StackPlanes(s.Read(context.Background(), ReadQuery{Array: "M", IDs: []int{2, 3}, Box: array.NewBox([]int64{0, 1}, []int64{2, 3})}))
	if err != nil {
		t.Fatal(err)
	}
	if sub.Shape()[0] != 2 || sub.Shape()[1] != 2 || sub.Shape()[2] != 2 {
		t.Fatalf("subsample shape %v", sub.Shape())
	}
	if sub.BitsAt([]int64{0, 1, 1}) != versions[1].BitsAt([]int64{1, 2}) {
		t.Fatal("subsample content wrong")
	}
	if _, err := s.SelectMulti("M", nil); err == nil {
		t.Error("empty version list accepted")
	}
	if _, err := s.Read(context.Background(), ReadQuery{Array: "M"}); err == nil {
		t.Error("Read with no versions accepted")
	}
}

func TestSparseArrayVersioning(t *testing.T) {
	s := testStore(t, smallOpts())
	sch := array.Schema{
		Name:  "CNet",
		Dims:  []array.Dimension{{Name: "I", Lo: 0, Hi: 9999}, {Name: "J", Lo: 0, Hi: 9999}},
		Attrs: []array.Attribute{{Name: "W", Type: array.Int32}},
	}
	if err := s.CreateArray(sch); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	cur := array.MustSparse(array.Int32, sch.Shape(), 0)
	for i := 0; i < 400; i++ {
		cur.SetBits(rng.Int63n(int64(1e8)), int64(rng.Intn(50)+1))
	}
	var snaps []*array.Sparse
	for v := 0; v < 4; v++ {
		snaps = append(snaps, cur.Clone())
		if _, err := s.Insert("CNet", SparsePayload(cur)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			cur.SetBits(rng.Int63n(int64(1e8)), int64(rng.Intn(50)+1))
		}
	}
	for i, want := range snaps {
		got, err := s.Select("CNet", i+1)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Sparse.Equal(want) {
			t.Fatalf("sparse version %d mismatch", i+1)
		}
	}
	// deltas must be tiny relative to materialization
	info, _ := s.Info("CNet")
	if info.DiskBytes >= 3*snaps[0].SizeBytes() {
		t.Fatalf("sparse chain uses %d bytes; one version is %d", info.DiskBytes, snaps[0].SizeBytes())
	}
	// sparse region select
	pl, err := s.SelectRegion("CNet", 1, array.NewBox([]int64{0, 0}, []int64{5000, 5000}))
	if err != nil {
		t.Fatal(err)
	}
	if !pl.IsSparse() {
		t.Fatal("region of sparse array should stay sparse")
	}
	// multi select keeps sparse representation
	vs, err := s.SelectSparseMulti("CNet", []int{1, 2, 3}, array.Box{})
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 3 || !vs[2].Equal(snaps[2]) {
		t.Fatal("sparse multi-select wrong")
	}
	// mixing representations is rejected
	if _, err := s.Insert("CNet", DensePayload(array.MustDense(array.Int32, sch.Shape()))); err == nil {
		t.Error("dense payload accepted into sparse array")
	}
}

func TestBranch(t *testing.T) {
	s := testStore(t, smallOpts())
	if err := s.CreateArray(schema2D("Src", 24)); err != nil {
		t.Fatal(err)
	}
	versions := evolvingVersions(3, 24, 9)
	for _, v := range versions {
		if _, err := s.Insert("Src", DensePayload(v)); err != nil {
			t.Fatal(err)
		}
	}
	// branch off version 2, not the head (Appendix A: "branches are
	// formed off of a particular version of an existing array")
	if err := s.Branch("Src", 2, "Fork"); err != nil {
		t.Fatal(err)
	}
	got, err := s.Select("Fork", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Dense.Equal(versions[1]) {
		t.Fatal("branch content mismatch")
	}
	fork, err := s.Info("Fork")
	if ref := fork.BranchedFrom; err != nil || ref == nil || ref.Array != "Src" || ref.Version != 2 {
		t.Fatalf("branch provenance = %v, %v", ref, err)
	}
	// updating the branch must not disturb the source
	if _, err := s.Insert("Fork", DensePayload(versions[2])); err != nil {
		t.Fatal(err)
	}
	src2, _ := s.Select("Src", 2)
	if !src2.Dense.Equal(versions[1]) {
		t.Fatal("branch update corrupted source")
	}
	if err := s.Branch("Src", 99, "Bad"); err == nil {
		t.Error("branch of missing version accepted")
	}
	if err := s.Branch("Nope", 1, "Bad"); err == nil {
		t.Error("branch of missing array accepted")
	}
}

func TestMerge(t *testing.T) {
	s := testStore(t, smallOpts())
	if err := s.CreateArray(schema2D("A1", 16)); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateArray(schema2D("A2", 16)); err != nil {
		t.Fatal(err)
	}
	va := evolvingVersions(2, 16, 10)
	vb := evolvingVersions(1, 16, 11)
	for _, v := range va {
		if _, err := s.Insert("A1", DensePayload(v)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Insert("A2", DensePayload(vb[0])); err != nil {
		t.Fatal(err)
	}
	err := s.Merge("Combined", []VersionRef{{"A1", 2}, {"A2", 1}, {"A1", 1}})
	if err != nil {
		t.Fatal(err)
	}
	infos, _ := versionsOf(s, "Combined")
	if len(infos) != 3 {
		t.Fatalf("merged array has %d versions", len(infos))
	}
	for i, want := range []*array.Dense{va[1], vb[0], va[0]} {
		got, err := s.Select("Combined", i+1)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Dense.Equal(want) {
			t.Fatalf("merged version %d mismatch", i+1)
		}
	}
	if err := s.Merge("X", []VersionRef{{"A1", 1}}); err == nil {
		t.Error("single-parent merge accepted")
	}
	if err := s.Merge("X", []VersionRef{{"A1", 1}, {"Missing", 1}}); err == nil {
		t.Error("merge with missing array accepted")
	}
}

func TestDeleteVersionReEncodesChildren(t *testing.T) {
	s := testStore(t, smallOpts())
	if err := s.CreateArray(schema2D("Del", 32)); err != nil {
		t.Fatal(err)
	}
	versions := evolvingVersions(4, 32, 12)
	for _, v := range versions {
		if _, err := s.Insert("Del", DensePayload(v)); err != nil {
			t.Fatal(err)
		}
	}
	// v3 is delta'ed against v2; deleting v2 must keep v3 readable
	if err := s.DeleteVersion("Del", 2); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{1, 3, 4} {
		got, err := s.Select("Del", id)
		if err != nil {
			t.Fatalf("version %d unreadable after delete: %v", id, err)
		}
		if !got.Dense.Equal(versions[id-1]) {
			t.Fatalf("version %d corrupted after delete", id)
		}
	}
	if _, err := s.Select("Del", 2); err == nil {
		t.Error("deleted version still selectable")
	}
	infos, _ := versionsOf(s, "Del")
	if len(infos) != 3 {
		t.Fatalf("live versions = %d", len(infos))
	}
	// compaction reclaims space and keeps everything readable
	before, _ := s.Info("Del")
	if err := s.Compact("Del"); err != nil {
		t.Fatal(err)
	}
	after, _ := s.Info("Del")
	if after.DiskBytes > before.DiskBytes {
		t.Fatalf("compact grew store: %d -> %d", before.DiskBytes, after.DiskBytes)
	}
	for _, id := range []int{1, 3, 4} {
		got, err := s.Select("Del", id)
		if err != nil || !got.Dense.Equal(versions[id-1]) {
			t.Fatalf("version %d broken after compact", id)
		}
	}
}

func TestVersionAt(t *testing.T) {
	s := testStore(t, smallOpts())
	base := time.Date(2011, 1, 1, 0, 0, 0, 0, time.UTC)
	tick := 0
	s.clock = func() time.Time {
		tick++
		return base.Add(time.Duration(tick) * time.Hour)
	}
	if err := s.CreateArray(schema2D("T", 16)); err != nil {
		t.Fatal(err)
	}
	for _, v := range evolvingVersions(3, 16, 13) {
		if _, err := s.Insert("T", DensePayload(v)); err != nil {
			t.Fatal(err)
		}
	}
	info, err := s.Info("T")
	if err != nil {
		t.Fatal(err)
	}
	id, err := info.At(base.Add(2*time.Hour + time.Minute))
	if err != nil || id != 2 {
		t.Fatalf("At = %d, %v", id, err)
	}
	if _, err := info.At(base); err == nil {
		t.Error("pre-history timestamp accepted")
	}
}

// TestMetadataIsACopy edits every piece of metadata that crosses the API
// by reference — the schema handed to CreateArray after the call, and
// the schema and provenance Info returns — and expects none of it to
// reach the store: not the live document, not the next commit record,
// not what a reopen replays.
func TestMetadataIsACopy(t *testing.T) {
	s := testStore(t, smallOpts())
	sch := schema2D("A", 16)
	if err := s.CreateArray(sch); err != nil {
		t.Fatal(err)
	}
	sch.Dims[0].Name, sch.Attrs[0].Name = "editedDim", "editedAttr"
	vs := evolvingVersions(2, 16, 5)
	if _, err := s.Insert("A", DensePayload(vs[0])); err != nil {
		t.Fatal(err)
	}
	if err := s.Branch("A", 1, "Fork"); err != nil {
		t.Fatal(err)
	}
	info, err := s.Info("A")
	if err != nil {
		t.Fatal(err)
	}
	info.Schema.Dims[0].Name, info.Schema.Attrs[0].Name = "editedDim", "editedAttr"
	fork, err := s.Info("Fork")
	if err != nil || fork.BranchedFrom == nil {
		t.Fatalf("Fork provenance = %+v, %v", fork.BranchedFrom, err)
	}
	*fork.BranchedFrom = BranchRef{Array: "edited", Version: 99}
	// one more insert into each array commits a fresh record of its
	// document, which an aliased edit would ride into
	for _, name := range []string{"A", "Fork"} {
		if _, err := s.Insert(name, DensePayload(vs[1])); err != nil {
			t.Fatal(err)
		}
	}
	check := func(label string, s *Store) {
		t.Helper()
		for _, name := range []string{"A", "Fork"} {
			info, err := s.Info(name)
			if err != nil {
				t.Fatal(err)
			}
			if want := schema2D(name, 16); !reflect.DeepEqual(info.Schema, want) {
				t.Errorf("%s: %s schema = %+v, want %+v", label, name, info.Schema, want)
			}
		}
		fork, _ := s.Info("Fork")
		if ref := fork.BranchedFrom; ref == nil || *ref != (BranchRef{Array: "A", Version: 1}) {
			t.Errorf("%s: Fork provenance = %+v, want A@1", label, ref)
		}
	}
	check("live", s)
	check("reopened", reopen(t, s))
}

// TestInfoIsOneSnapshot reads Info while another goroutine inserts and
// deletes versions: every result must agree with itself.
func TestInfoIsOneSnapshot(t *testing.T) {
	s := testStore(t, smallOpts())
	if err := s.CreateArray(schema2D("S", 16)); err != nil {
		t.Fatal(err)
	}
	vs := evolvingVersions(4, 16, 7)
	if _, err := s.Insert("S", DensePayload(vs[0])); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		for i := 1; i <= 60; i++ {
			id, err := s.Insert("S", DensePayload(vs[i%len(vs)]))
			if err == nil && i%3 == 0 {
				err = s.DeleteVersion("S", id-1)
			}
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	far := time.Date(9999, 1, 1, 0, 0, 0, 0, time.UTC)
	for writing := true; writing; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			writing = false
		default:
		}
		info, err := s.Info("S")
		if err != nil {
			t.Fatal(err)
		}
		if info.NumVersions != len(info.Versions) {
			t.Fatalf("NumVersions %d, %d versions listed", info.NumVersions, len(info.Versions))
		}
		sum := int64(0)
		for i, v := range info.Versions {
			sum += v.Bytes
			if i > 0 && v.ID <= info.Versions[i-1].ID {
				t.Fatalf("version ids out of order: %d after %d", v.ID, info.Versions[i-1].ID)
			}
		}
		if info.DiskBytes != sum {
			t.Fatalf("DiskBytes %d, versions sum to %d", info.DiskBytes, sum)
		}
		last := info.Versions[len(info.Versions)-1].ID
		if id, err := info.At(far); err != nil || id != last {
			t.Fatalf("At(far future) = %d, %v; newest listed is %d", id, err, last)
		}
	}
}

func TestReorganizePolicies(t *testing.T) {
	for _, policy := range []LayoutPolicy{PolicyOptimal, PolicyAlgorithm1, PolicyAlgorithm2, PolicyLinearChain, PolicyHeadBiased} {
		s := testStore(t, smallOpts())
		if err := s.CreateArray(schema2D("Re", 32)); err != nil {
			t.Fatal(err)
		}
		versions := evolvingVersions(6, 32, 14)
		for _, v := range versions {
			if _, err := s.Insert("Re", DensePayload(v)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Reorganize("Re", ReorganizeOptions{Policy: policy}); err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		for i, want := range versions {
			got, err := s.Select("Re", i+1)
			if err != nil {
				t.Fatalf("%v: version %d unreadable: %v", policy, i+1, err)
			}
			if !got.Dense.Equal(want) {
				t.Fatalf("%v: version %d corrupted", policy, i+1)
			}
		}
	}
}

// TestReorganizeBatched: §IV-E batched re-encoding, reached through
// ReorganizeOptions.BatchK. Each batch of K versions is laid out on its
// own — no delta base crosses a batch boundary — and every version reads
// back byte-identical.
func TestReorganizeBatched(t *testing.T) {
	checkReorganizeBatched(t, evolvingVersions(7, 32, 15), 3, false)
}

// TestAutoBatchReencode: the §IV-E batch re-encode of periodic content.
// Periodic content (A,B,A,B) inside a batch of 4 must make same-phase
// versions delta against each other rather than form a lossy linear
// chain: after Compact the store is far below raw.
func TestAutoBatchReencode(t *testing.T) {
	checkReorganizeBatched(t, periodicVersions(8, 32, 53), 4, true)
}

// checkReorganizeBatched inserts versions, reorganizes them in batches
// of k under the optimal policy, and checks read-back, batch isolation,
// Verify and, for periodic content, the on-disk size after Compact.
func checkReorganizeBatched(t *testing.T, versions []*array.Dense, k int, periodic bool) {
	t.Helper()
	s := testStore(t, smallOpts())
	if err := s.CreateArray(schema2D("B", 32)); err != nil {
		t.Fatal(err)
	}
	for _, v := range versions {
		if _, err := s.Insert("B", DensePayload(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Reorganize("B", ReorganizeOptions{Policy: PolicyOptimal, BatchK: k}); err != nil {
		t.Fatal(err)
	}
	for i, want := range versions {
		got, err := s.Select("B", i+1)
		if err != nil || !got.Dense.Equal(want) {
			t.Fatalf("batched reorganize broke version %d: %v", i+1, err)
		}
	}
	infos, _ := versionsOf(s, "B")
	for _, vi := range infos {
		for _, b := range vi.DeltaBases {
			if (b-1)/k != (vi.ID-1)/k {
				t.Fatalf("version %d crosses batch boundary (base %d)", vi.ID, b)
			}
		}
	}
	if periodic {
		if err := s.Compact("B"); err != nil {
			t.Fatal(err)
		}
		info, _ := s.Info("B")
		// floor is 2 materialized phase versions per batch + tiny deltas
		raw := int64(len(versions)) * versions[0].SizeBytes()
		if info.DiskBytes >= raw*2/3 {
			t.Fatalf("batched store uses %d bytes; raw would be %d", info.DiskBytes, raw)
		}
	}
	if rep, err := s.Verify("B"); err != nil || !rep.Ok() {
		t.Fatalf("verify after batching: %v %v", rep.Problems, err)
	}
}

// periodicVersions alternates two random phases, each version with a
// tiny tweak of its own.
func periodicVersions(n int, side, seed int64) []*array.Dense {
	rng := rand.New(rand.NewSource(seed))
	phases := [2]*array.Dense{
		array.MustDense(array.Int32, []int64{side, side}),
		array.MustDense(array.Int32, []int64{side, side}),
	}
	for i := int64(0); i < phases[0].NumCells(); i++ {
		phases[0].SetBits(i, int64(rng.Uint32()))
		phases[1].SetBits(i, int64(rng.Uint32()))
	}
	out := make([]*array.Dense, n)
	for v := range out {
		out[v] = phases[v%2].Clone()
		out[v].SetBits(int64(v), int64(v))
	}
	return out
}

func TestReorganizeWorkloadAware(t *testing.T) {
	s := testStore(t, smallOpts())
	if err := s.CreateArray(schema2D("WA", 32)); err != nil {
		t.Fatal(err)
	}
	versions := evolvingVersions(5, 32, 16)
	for _, v := range versions {
		if _, err := s.Insert("WA", DensePayload(v)); err != nil {
			t.Fatal(err)
		}
	}
	wl := []struct{}{}
	_ = wl
	if err := s.Reorganize("WA", ReorganizeOptions{
		Policy:   PolicyWorkloadAware,
		Workload: headWorkload(5),
	}); err != nil {
		t.Fatal(err)
	}
	for i, want := range versions {
		got, err := s.Select("WA", i+1)
		if err != nil || !got.Dense.Equal(want) {
			t.Fatalf("workload-aware reorganize broke version %d: %v", i+1, err)
		}
	}
}

func TestCompressionCodecs(t *testing.T) {
	for _, codec := range []compress.Codec{compress.LZ, compress.RLE, compress.PNG, compress.Wavelet} {
		o := smallOpts()
		o.Codec = codec
		s := testStore(t, o)
		if err := s.CreateArray(schema2D("C", 32)); err != nil {
			t.Fatal(err)
		}
		versions := evolvingVersions(3, 32, 17)
		for _, v := range versions {
			if _, err := s.Insert("C", DensePayload(v)); err != nil {
				t.Fatalf("%v: %v", codec, err)
			}
		}
		for i, want := range versions {
			got, err := s.Select("C", i+1)
			if err != nil {
				t.Fatalf("%v: %v", codec, err)
			}
			if !got.Dense.Equal(want) {
				t.Fatalf("%v: version %d corrupted", codec, i+1)
			}
		}
	}
}

// TestRewriteAndWritesShareOneLog writes versions into the data log,
// compacts them, and keeps writing, deltas against the compacted
// versions among the new ones: the generation then holds one file, its
// log, with the compacted frames first, each chunk's run of versions in
// id order, and the later writes after them; every version reads back
// byte-identical, live and after a durable reopen that repairs nothing.
func TestRewriteAndWritesShareOneLog(t *testing.T) {
	o := smallOpts()
	o.Durability = true
	s := testStore(t, o)
	if err := s.CreateArray(schema2D("LC", 32)); err != nil {
		t.Fatal(err)
	}
	versions := evolvingVersions(8, 32, 18)
	for i, v := range versions {
		if _, err := s.Insert("LC", DensePayload(v)); err != nil {
			t.Fatal(err)
		}
		if i == 3 {
			if err := s.Compact("LC"); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.mu.RLock()
	st := s.arrays["LC"]
	dir := st.chunksDir()
	vms := slices.Clone(st.Versions)
	s.mu.RUnlock()
	if files, _ := os.ReadDir(dir); len(files) != 1 || files[0].Name() != dataLogName {
		t.Fatalf("generation holds %v, want only %s", files, dataLogName)
	}
	for key, e := range vms[0].Chunks["A"] {
		for _, vm := range vms[1:4] {
			next := vm.Chunks["A"][key]
			if next.File != dataLogName || next.Offset != e.Offset+frameLen(e.Length) {
				t.Fatalf("chunk %s: version %d's compacted frame is at %s@%d, want right after version %d's", key, vm.ID, next.File, next.Offset, vm.ID-1)
			}
			e = next
		}
	}
	first := vms[4] // the first write after Compact
	deltaOnCompacted := false
	for _, e := range first.Chunks["A"] {
		deltaOnCompacted = deltaOnCompacted || e.Base == 4
	}
	if !deltaOnCompacted {
		t.Fatal("no written frame deltas against a compacted version; the mix is untested")
	}
	for _, label := range []string{"live", "reopened"} {
		if label == "reopened" {
			s = reopen(t, s)
			if rec := s.Recovery(); rec != (RecoveryStats{}) {
				t.Fatalf("reopen repaired %+v, want nothing", rec)
			}
		}
		for i, want := range versions {
			got, err := s.Select("LC", i+1)
			if err != nil || !got.Dense.Equal(want) {
				t.Fatalf("%s: version %d: %v", label, i+1, err)
			}
		}
		if rep, err := s.Verify("LC"); err != nil || !rep.Ok() || rep.DanglingBytes != 0 {
			t.Fatalf("%s: verify: %v %v, %d dangling bytes", label, err, rep.Problems, rep.DanglingBytes)
		}
	}
	s.Close()
}

func TestErrorPaths(t *testing.T) {
	s := testStore(t, smallOpts())
	if _, err := s.Select("nope", 1); err == nil {
		t.Error("select on missing array accepted")
	}
	if err := s.DeleteArray("nope"); err == nil {
		t.Error("delete of missing array accepted")
	}
	if err := s.Reorganize("nope", ReorganizeOptions{}); err == nil {
		t.Error("reorganize of missing array accepted")
	}
	if _, err := s.Tune("nope", []layout.Query{layout.Snapshot(1, 1)}); err == nil {
		t.Error("tune of missing array accepted")
	}
	if err := s.CreateArray(array.Schema{Name: "bad name!"}); err == nil {
		t.Error("invalid schema accepted")
	}
	if err := s.CreateArray(schema2D("E", 8)); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateArray(schema2D("E", 8)); err == nil {
		t.Error("duplicate array accepted")
	}
	if _, err := s.Select("E", 1); err == nil {
		t.Error("select of missing version accepted")
	}
	wrong := array.MustDense(array.Int16, []int64{8, 8})
	if _, err := s.Insert("E", DensePayload(wrong)); err == nil {
		t.Error("dtype mismatch accepted")
	}
	wrongShape := array.MustDense(array.Int32, []int64{4, 4})
	if _, err := s.Insert("E", DensePayload(wrongShape)); err == nil {
		t.Error("shape mismatch accepted")
	}
	if _, err := s.Insert("E", Payload{}); err == nil {
		t.Error("empty payload accepted")
	}
	v := array.MustDense(array.Int32, []int64{8, 8})
	if _, err := s.Insert("E", DensePayload(v)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SelectRegion("E", 1, array.NewBox([]int64{0}, []int64{1})); err == nil {
		t.Error("wrong-dim box accepted")
	}
	if _, err := s.SelectRegion("E", 1, array.NewBox([]int64{100, 100}, []int64{200, 200})); err == nil {
		t.Error("out-of-range box accepted")
	}
	if _, err := s.Read(context.Background(), ReadQuery{Array: "E", IDs: []int{1}, Attr: "Nope"}); err == nil {
		t.Error("unknown attribute accepted")
	}
}

func TestCorruptChunkFileDetected(t *testing.T) {
	dir := t.TempDir()
	o := smallOpts()
	o.Codec = compress.LZ
	s, err := Open(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateArray(schema2D("K", 32)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert("K", DensePayload(evolvingVersions(1, 32, 19)[0])); err != nil {
		t.Fatal(err)
	}
	// scribble over every chunk file
	chunksDir := filepath.Join(dir, "K", "chunks")
	entries, err := os.ReadDir(chunksDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		path := filepath.Join(chunksDir, e.Name())
		info, _ := os.Stat(path)
		junk := make([]byte, info.Size())
		if err := os.WriteFile(path, junk, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Select("K", 1); err == nil {
		t.Error("corrupt chunk data went undetected")
	}
}

func TestCorruptMetadataRejectedOnOpen(t *testing.T) {
	dir := t.TempDir()
	opts := smallOpts()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateArray(schema2D("Meta", 8)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestSnapName(1)), []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, opts); err == nil {
		t.Error("corrupt metadata accepted on reopen")
	}
}

func TestMultiAttributeArrays(t *testing.T) {
	s := testStore(t, smallOpts())
	sch := array.Schema{
		Name: "Multi",
		Dims: []array.Dimension{{Name: "X", Lo: 0, Hi: 15}, {Name: "Y", Lo: 0, Hi: 15}},
		Attrs: []array.Attribute{
			{Name: "Temp", Type: array.Float32},
			{Name: "Humidity", Type: array.Float64},
		},
	}
	if err := s.CreateArray(sch); err != nil {
		t.Fatal(err)
	}
	temp := array.MustDense(array.Float32, sch.Shape())
	hum := array.MustDense(array.Float64, sch.Shape())
	for i := int64(0); i < temp.NumCells(); i++ {
		temp.SetFloat(i, float64(i)*0.5)
		hum.SetFloat(i, float64(i)*0.25)
	}
	id, err := s.Insert("Multi", Payload{Planes: []Plane{{Dense: temp}, {Dense: hum}}})
	if err != nil {
		t.Fatal(err)
	}
	gotT, err := s.Read(context.Background(), ReadQuery{Array: "Multi", IDs: []int{id}, Attr: "Temp"})
	if err != nil || !gotT[0].Dense.Equal(temp) {
		t.Fatal("Temp plane mismatch")
	}
	gotH, err := s.Read(context.Background(), ReadQuery{Array: "Multi", IDs: []int{id}, Attr: "Humidity"})
	if err != nil || !gotH[0].Dense.Equal(hum) {
		t.Fatal("Humidity plane mismatch")
	}
	// a named non-first attribute over two versions: each version's plane
	temp2, hum2 := temp.Clone(), hum.Clone()
	for i := int64(0); i < hum2.NumCells(); i += 3 {
		temp2.SetFloat(i, -1)
		hum2.SetFloat(i, float64(i)*-2)
	}
	id2, err := s.Insert("Multi", Payload{Planes: []Plane{{Dense: temp2}, {Dense: hum2}}})
	if err != nil {
		t.Fatal(err)
	}
	both, err := s.Read(context.Background(), ReadQuery{Array: "Multi", IDs: []int{id, id2}, Attr: "Humidity"})
	if err != nil {
		t.Fatal(err)
	}
	if len(both) != 2 || !both[0].Dense.Equal(hum) || !both[1].Dense.Equal(hum2) {
		t.Fatal("two-version Humidity read mismatch")
	}
	// plane count mismatch rejected
	if _, err := s.Insert("Multi", Payload{Planes: []Plane{{Dense: temp}}}); err == nil {
		t.Error("missing plane accepted")
	}
}

// TestSameTypedAttributesStayApart pins the per-query memo's key: with
// two attributes of one type, an insert's delta base, a multi-version
// read and a branch copy must each see the attribute they asked for,
// never the other one's plane of the same chunk and version.
func TestSameTypedAttributesStayApart(t *testing.T) {
	s := testStore(t, smallOpts())
	sch := array.Schema{
		Name:  "Pair",
		Dims:  []array.Dimension{{Name: "X", Lo: 0, Hi: 31}, {Name: "Y", Lo: 0, Hi: 31}},
		Attrs: []array.Attribute{{Name: "A", Type: array.Int32}, {Name: "B", Type: array.Int32}},
	}
	if err := s.CreateArray(sch); err != nil {
		t.Fatal(err)
	}
	vs := evolvingVersions(4, 32, 3)
	as, bs := vs[:2], vs[2:]
	for i := range as {
		if _, err := s.Insert("Pair", Payload{Planes: []Plane{{Dense: as[i]}, {Dense: bs[i]}}}); err != nil {
			t.Fatal(err)
		}
	}
	for attr, want := range map[string][]*array.Dense{"A": as, "B": bs} {
		got, err := s.Read(context.Background(), ReadQuery{Array: "Pair", IDs: []int{1, 2}, Attr: attr})
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if !got[i].Dense.Equal(want[i]) {
				t.Fatalf("attribute %s of version %d mismatch", attr, i+1)
			}
		}
	}
	if err := s.Branch("Pair", 2, "PairB"); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(context.Background(), ReadQuery{Array: "PairB", IDs: []int{1}, Attr: "B"})
	if err != nil || !got[0].Dense.Equal(bs[1]) {
		t.Fatalf("branched attribute B mismatch: %v", err)
	}
}

func TestDeleteArray(t *testing.T) {
	s := testStore(t, smallOpts())
	if err := s.CreateArray(schema2D("G", 8)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert("G", DensePayload(array.MustDense(array.Int32, []int64{8, 8}))); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteArray("G"); err != nil {
		t.Fatal(err)
	}
	if len(s.ListArrays()) != 0 {
		t.Fatal("array still listed")
	}
	if _, err := os.Stat(filepath.Join(s.Dir(), "G")); !os.IsNotExist(err) {
		t.Fatal("array directory still on disk")
	}
}

// headWorkload builds a workload hammering the newest version.
func headWorkload(n int) []layout.Query {
	return []layout.Query{
		{Versions: []int{n}, Weight: 0.9},
		{Versions: rangeInts(1, n), Weight: 0.1},
	}
}

func rangeInts(lo, hi int) []int {
	var out []int
	for v := lo; v <= hi; v++ {
		out = append(out, v)
	}
	return out
}

func TestReopenAfterReorganize(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateArray(schema2D("RR", 32)); err != nil {
		t.Fatal(err)
	}
	versions := evolvingVersions(5, 32, 23)
	for _, v := range versions {
		if _, err := s.Insert("RR", DensePayload(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Reorganize("RR", ReorganizeOptions{Policy: PolicyOptimal}); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range versions {
		got, err := s2.Select("RR", i+1)
		if err != nil || !got.Dense.Equal(want) {
			t.Fatalf("version %d broken after reorganize+reopen: %v", i+1, err)
		}
	}
}

func TestBranchSparseArray(t *testing.T) {
	s := testStore(t, smallOpts())
	sch := array.Schema{
		Name:  "SpSrc",
		Dims:  []array.Dimension{{Name: "I", Lo: 0, Hi: 999}, {Name: "J", Lo: 0, Hi: 999}},
		Attrs: []array.Attribute{{Name: "W", Type: array.Int32}},
	}
	if err := s.CreateArray(sch); err != nil {
		t.Fatal(err)
	}
	sp := array.MustSparse(array.Int32, sch.Shape(), 0)
	sp.SetBits(7, 70)
	if _, err := s.Insert("SpSrc", SparsePayload(sp)); err != nil {
		t.Fatal(err)
	}
	if err := s.Branch("SpSrc", 1, "SpFork"); err != nil {
		t.Fatal(err)
	}
	got, err := s.Select("SpFork", 1)
	if err != nil || !got.IsSparse() || got.Sparse.Bits(7) != 70 {
		t.Fatalf("sparse branch broken: %v", err)
	}
}

func TestConcurrentSelects(t *testing.T) {
	s := testStore(t, smallOpts())
	if err := s.CreateArray(schema2D("CC", 32)); err != nil {
		t.Fatal(err)
	}
	versions := evolvingVersions(4, 32, 29)
	for _, v := range versions {
		if _, err := s.Insert("CC", DensePayload(v)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 10; k++ {
				id := (g+k)%4 + 1
				got, err := s.Select("CC", id)
				if err != nil {
					errs <- err
					return
				}
				if !got.Dense.Equal(versions[id-1]) {
					errs <- fmt.Errorf("goroutine %d: version %d corrupted", g, id)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func sparseSnapshots(n int, dim int64, seed int64) []*array.Sparse {
	rng := rand.New(rand.NewSource(seed))
	cur := array.MustSparse(array.Int32, []int64{dim, dim}, 0)
	for i := 0; i < 300; i++ {
		cur.SetBits(rng.Int63n(dim*dim), int64(rng.Intn(90)+1))
	}
	out := make([]*array.Sparse, n)
	for v := 0; v < n; v++ {
		out[v] = cur.Clone()
		for e := 0; e < 20; e++ {
			cur.SetBits(rng.Int63n(dim*dim), int64(rng.Intn(90)+1))
		}
	}
	return out
}

func sparseSchema(name string, dim int64) array.Schema {
	return array.Schema{
		Name:  name,
		Dims:  []array.Dimension{{Name: "I", Lo: 0, Hi: dim - 1}, {Name: "J", Lo: 0, Hi: dim - 1}},
		Attrs: []array.Attribute{{Name: "W", Type: array.Int32}},
	}
}

func TestReorganizeSparseArray(t *testing.T) {
	for _, policy := range []LayoutPolicy{PolicyOptimal, PolicyLinearChain, PolicyAlgorithm2} {
		s := testStore(t, smallOpts())
		if err := s.CreateArray(sparseSchema("SR", 5000)); err != nil {
			t.Fatal(err)
		}
		snaps := sparseSnapshots(6, 5000, 43)
		for _, sp := range snaps {
			if _, err := s.Insert("SR", SparsePayload(sp)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Reorganize("SR", ReorganizeOptions{Policy: policy}); err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		for i, want := range snaps {
			got, err := s.Select("SR", i+1)
			if err != nil || !got.Sparse.Equal(want) {
				t.Fatalf("%v: sparse version %d broken: %v", policy, i+1, err)
			}
		}
		rep, err := s.Verify("SR")
		if err != nil || !rep.Ok() {
			t.Fatalf("%v: verify: %v %v", policy, rep.Problems, err)
		}
	}
}

func TestDeleteVersionSparse(t *testing.T) {
	s := testStore(t, smallOpts())
	if err := s.CreateArray(sparseSchema("SD", 5000)); err != nil {
		t.Fatal(err)
	}
	snaps := sparseSnapshots(4, 5000, 44)
	for _, sp := range snaps {
		if _, err := s.Insert("SD", SparsePayload(sp)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.DeleteVersion("SD", 2); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{1, 3, 4} {
		got, err := s.Select("SD", id)
		if err != nil || !got.Sparse.Equal(snaps[id-1]) {
			t.Fatalf("sparse version %d broken after delete: %v", id, err)
		}
	}
	if err := s.Compact("SD"); err != nil {
		t.Fatal(err)
	}
	got, err := s.Select("SD", 4)
	if err != nil || !got.Sparse.Equal(snaps[3]) {
		t.Fatal("sparse compact broke content")
	}
}

func TestMergeSparseParents(t *testing.T) {
	s := testStore(t, smallOpts())
	if err := s.CreateArray(sparseSchema("MA", 3000)); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateArray(sparseSchema("MB", 3000)); err != nil {
		t.Fatal(err)
	}
	a := sparseSnapshots(1, 3000, 47)[0]
	b := sparseSnapshots(1, 3000, 48)[0]
	if _, err := s.Insert("MA", SparsePayload(a)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert("MB", SparsePayload(b)); err != nil {
		t.Fatal(err)
	}
	if err := s.Merge("MC", []VersionRef{{"MA", 1}, {"MB", 1}}); err != nil {
		t.Fatal(err)
	}
	got, err := s.Select("MC", 2)
	if err != nil || !got.Sparse.Equal(b) {
		t.Fatalf("sparse merge broken: %v", err)
	}
}

// TestSparseInsertAllocsIndependentOfGrid bounds a 100-entry sparse
// insert's allocations at DefaultOptions whatever its array's shape: a
// sparse write never touches the dense chunk grid, so a 1 000 000²
// array, whose grid has about 3.8·10⁵ chunks, allocates what a 1 000²
// one does.
func TestSparseInsertAllocsIndependentOfGrid(t *testing.T) {
	for _, dim := range []int64{1_000, 1_000_000} {
		s := testStore(t, DefaultOptions())
		name := fmt.Sprintf("Sp%d", dim)
		if err := s.CreateArray(sparseSchema(name, dim)); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(dim))
		sp := array.MustSparse(array.Int32, []int64{dim, dim}, 0)
		allocs := testing.AllocsPerRun(4, func() {
			for range 100 {
				sp.SetBits(rng.Int63n(dim*dim), int64(rng.Intn(90)+1))
			}
			if _, err := s.Insert(name, SparsePayload(sp)); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d²: %.0f allocations", dim, allocs)
		if allocs > 1000 {
			t.Errorf("%d² array: a sparse insert made %.0f allocations, want at most 1000", dim, allocs)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
