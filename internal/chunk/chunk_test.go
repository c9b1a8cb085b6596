package chunk

import (
	"math/rand"
	"testing"
	"testing/quick"

	"arrayvers/internal/array"
)

func TestPaperSizingExample(t *testing.T) {
	// "in a 2D array with 8 byte cells and 1 Mbyte chunks, the system
	// would store 1 Mbyte / 8 bytes = 128 kcells/chunk. Hence each chunk
	// would have dimensionality dim = ceil(sqrt(128K)) = 358 units on a
	// side." (§III-B.1)
	c, err := New([]int64{10000, 10000}, 8, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if c.Side()[0] != 363 && c.Side()[0] != 358 {
		// ceil(sqrt(131072)) = ceil(362.04) = 363; the paper's 358 comes
		// from sqrt(128000). Accept the exact computation.
		t.Fatalf("side = %v", c.Side())
	}
	if c.Side()[0] != c.Side()[1] {
		t.Fatal("2D strides differ")
	}
}

func TestChunkOfMatchesPaperFormula(t *testing.T) {
	c, _ := NewWithSide([]int64{1000, 1000}, []int64{358, 358})
	// fX = floor(X/dim)*dim
	origin := c.ChunkOf([]int64{400, 700})
	if origin[0] != 358 || origin[1] != 358 {
		t.Fatalf("origin = %v", origin)
	}
	origin = c.ChunkOf([]int64{0, 357})
	if origin[0] != 0 || origin[1] != 0 {
		t.Fatalf("origin = %v", origin)
	}
}

func TestKeyFormat(t *testing.T) {
	c, _ := NewWithSide([]int64{1000, 1000}, []int64{358, 358})
	// paper: chunk-0-0-357-357.dat
	if got := c.Key([]int64{0, 0}); got != "chunk-0-0-357-357" {
		t.Fatalf("key = %q", got)
	}
	if got := c.Key([]int64{358, 0}); got != "chunk-358-0-715-357" {
		t.Fatalf("key = %q", got)
	}
	origin, err := ParseKey("chunk-358-0-715-357", 2)
	if err != nil {
		t.Fatal(err)
	}
	if origin[0] != 358 || origin[1] != 0 {
		t.Fatalf("parsed origin = %v", origin)
	}
	if _, err := ParseKey("chunk-1-2", 2); err == nil {
		t.Error("short key accepted")
	}
	if _, err := ParseKey("blob-0-0-1-1", 2); err == nil {
		t.Error("wrong prefix accepted")
	}
	if _, err := ParseKey("chunk-a-0-1-1", 2); err == nil {
		t.Error("non-numeric key accepted")
	}
}

func TestCounts(t *testing.T) {
	c, _ := NewWithSide([]int64{10, 25}, []int64{4, 10})
	per := c.CountPerDim()
	if per[0] != 3 || per[1] != 3 {
		t.Fatalf("countPerDim = %v", per)
	}
	if c.Count() != 9 {
		t.Fatalf("count = %d", c.Count())
	}
	if got := len(c.All()); got != 9 {
		t.Fatalf("All() returned %d chunks", got)
	}
}

func TestEdgeChunksClipped(t *testing.T) {
	c, _ := NewWithSide([]int64{10, 25}, []int64{4, 10})
	box := c.Box([]int64{8, 20})
	if box.Hi[0] != 10 || box.Hi[1] != 25 {
		t.Fatalf("edge box = %v", box)
	}
	if box.NumCells() != 2*5 {
		t.Fatalf("edge box cells = %d", box.NumCells())
	}
}

func TestOverlapping(t *testing.T) {
	c, _ := NewWithSide([]int64{100, 100}, []int64{50, 50})
	got := c.Overlapping(array.NewBox([]int64{30, 10}, []int64{70, 45}))
	// rows 30..69 span both row-chunks; cols 10..44 span only col-chunk 0
	if len(got) != 2 {
		t.Fatalf("overlapping = %v", got)
	}
	if got[0][0] != 0 || got[0][1] != 0 || got[1][0] != 50 || got[1][1] != 0 {
		t.Fatalf("overlapping = %v", got)
	}
	// full-array query touches all chunks
	if len(c.Overlapping(array.BoxOf(c.Shape()))) != 4 {
		t.Fatal("full query didn't touch all chunks")
	}
	// out-of-range query touches none
	if len(c.Overlapping(array.NewBox([]int64{200, 200}, []int64{300, 300}))) != 0 {
		t.Fatal("out-of-range query touched chunks")
	}
	// single-cell query touches exactly one
	if len(c.Overlapping(array.NewBox([]int64{99, 99}, []int64{100, 100}))) != 1 {
		t.Fatal("single-cell query wrong")
	}
}

func TestPartitionInvariant(t *testing.T) {
	// Chunks must form a disjoint cover of the array: every cell belongs
	// to exactly one chunk box.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		shape := []int64{int64(rng.Intn(20) + 1), int64(rng.Intn(20) + 1)}
		side := []int64{int64(rng.Intn(7) + 1), int64(rng.Intn(7) + 1)}
		c, err := NewWithSide(shape, side)
		if err != nil {
			return false
		}
		covered := map[[2]int64]int{}
		for _, origin := range c.All() {
			box := c.Box(origin)
			for r := box.Lo[0]; r < box.Hi[0]; r++ {
				for col := box.Lo[1]; col < box.Hi[1]; col++ {
					covered[[2]int64{r, col}]++
				}
			}
		}
		if int64(len(covered)) != shape[0]*shape[1] {
			return false
		}
		for _, cnt := range covered {
			if cnt != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestExtractAssembleRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := array.MustDense(array.Int32, []int64{23, 17})
	for i := int64(0); i < a.NumCells(); i++ {
		a.SetBits(i, int64(rng.Intn(10000)))
	}
	c, _ := NewWithSide(a.Shape(), []int64{7, 5})
	out := array.MustDense(array.Int32, a.Shape())
	for _, origin := range c.All() {
		piece, err := c.Extract(a, origin)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Assemble(out, origin, piece); err != nil {
			t.Fatal(err)
		}
	}
	if !out.Equal(a) {
		t.Fatal("extract/assemble roundtrip mismatch")
	}
}

func TestExtractSparse(t *testing.T) {
	s := array.MustSparse(array.Int32, []int64{10, 10}, 0)
	s.SetBits(0, 1)  // (0,0)
	s.SetBits(57, 2) // (5,7)
	s.SetBits(99, 3) // (9,9)
	c, _ := NewWithSide(s.Shape(), []int64{5, 5})
	piece, err := c.ExtractSparse(s, []int64{5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if piece.NNZ() != 2 {
		t.Fatalf("sparse chunk NNZ = %d", piece.NNZ())
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, 4, 1024); err == nil {
		t.Error("empty shape accepted")
	}
	if _, err := New([]int64{0}, 4, 1024); err == nil {
		t.Error("zero extent accepted")
	}
	if _, err := New([]int64{4}, 0, 1024); err == nil {
		t.Error("zero elem accepted")
	}
	if _, err := New([]int64{4}, 4, 0); err == nil {
		t.Error("zero chunkBytes accepted")
	}
	if _, err := NewWithSide([]int64{4}, []int64{1, 2}); err == nil {
		t.Error("mismatched side accepted")
	}
	if _, err := NewWithSide([]int64{4}, []int64{0}); err == nil {
		t.Error("zero stride accepted")
	}
}

func TestTinyChunkBytes(t *testing.T) {
	// chunkBytes smaller than one cell must still produce 1-cell chunks
	c, err := New([]int64{4, 4}, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.Count() != 16 {
		t.Fatalf("count = %d", c.Count())
	}
}

// TestLocate checks Locate against the chunk boxes: every cell of a
// ragged 3-D array maps to the All() index of the chunk whose box holds
// it, at its row-major offset inside that box.
func TestLocate(t *testing.T) {
	shape := []int64{7, 5, 9}
	c, err := NewWithSide(shape, []int64{3, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	origins := c.All()
	a := array.MustDense(array.Int8, shape)
	for flat := int64(0); flat < a.NumCells(); flat++ {
		coords := a.Coords(flat)
		ci, local := c.Locate(flat)
		box := c.Box(origins[ci])
		if !box.Contains(coords) {
			t.Fatalf("cell %v: chunk %d box %v does not hold it", coords, ci, box)
		}
		in := array.MustDense(array.Int8, box.Shape())
		rel := make([]int64, len(coords))
		for d := range coords {
			rel[d] = coords[d] - box.Lo[d]
		}
		if want := in.FlatIndex(rel); local != want {
			t.Fatalf("cell %v: local %d, want %d", coords, local, want)
		}
	}
}
