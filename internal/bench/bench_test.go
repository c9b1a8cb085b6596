package bench

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The experiment runners are exercised end to end at QuickScale; shape
// assertions (who wins, by roughly what factor) live here so regressions
// in the reproduction are caught by `go test`.

var update = flag.Bool("update", false, "rewrite the testdata/*.sizes goldens from this run")

// checkSizes compares a table's size columns with testdata/<name>.sizes:
// one line per row, its first keys columns (the row's key) and then the
// columns cols, tab-separated. The datasets and encoders are seeded and
// deterministic, so at QuickScale every rendered size and byte count
// must match exactly; time columns vary run to run and are never
// compared. -update rewrites the golden.
func checkSizes(t *testing.T, name string, tab Table, keys int, cols ...int) {
	t.Helper()
	var b strings.Builder
	for _, r := range tab.Rows {
		fields := append([]string(nil), r[:keys]...)
		for _, c := range cols {
			fields = append(fields, r[c])
		}
		fmt.Fprintf(&b, "%s\n", strings.Join(fields, "\t"))
	}
	path := filepath.Join("testdata", name+".sizes")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("%s sizes differ from %s:\ngot:\n%swant:\n%s", tab.Title, path, got, want)
	}
}

func parseBytes(t *testing.T, s string) float64 {
	t.Helper()
	mult := 1.0
	switch {
	case strings.HasSuffix(s, "GB"):
		mult = 1 << 30
		s = strings.TrimSuffix(s, "GB")
	case strings.HasSuffix(s, "MB"):
		mult = 1 << 20
		s = strings.TrimSuffix(s, "MB")
	case strings.HasSuffix(s, "KB"):
		mult = 1 << 10
		s = strings.TrimSuffix(s, "KB")
	case strings.HasSuffix(s, "B"):
		s = strings.TrimSuffix(s, "B")
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad byte size %q", s)
	}
	return v * mult
}

func TestTable1Shape(t *testing.T) {
	tab, err := Table1(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	sizes := map[string]float64{}
	for _, r := range tab.Rows {
		sizes[r[0]] = parseBytes(t, r[2])
	}
	checkSizes(t, "table1", tab, 1, 2)
	// every delta method beats uncompressed on this data
	raw := sizes["Uncompressed"]
	for name, sz := range sizes {
		if name == "Uncompressed" {
			continue
		}
		if sz >= raw {
			t.Errorf("%s size %.0f >= uncompressed %.0f", name, sz, raw)
		}
	}
	// hybrid must be no worse than dense and sparse (paper: "the hybrid
	// implementation yields the smallest data size" among the matrix
	// methods)
	if sizes["Hybrid"] > sizes["Dense"] || sizes["Hybrid"] > sizes["Sparse"]*1.05 {
		t.Errorf("hybrid %.0f not smallest of dense %.0f / sparse %.0f",
			sizes["Hybrid"], sizes["Dense"], sizes["Sparse"])
	}
	t.Log("\n" + tab.String())
}

func TestTable2Shape(t *testing.T) {
	tab, err := Table2(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	sizes := map[string]float64{}
	for _, r := range tab.Rows {
		sizes[r[0]] = parseBytes(t, r[1])
	}
	checkSizes(t, "table2", tab, 1, 1)
	// LZ must compress the delta grids (paper: LZ is the best overall)
	if sizes["Lempel-Ziv"] >= sizes["Run-Length Encoding"] {
		t.Errorf("LZ %.0f >= RLE %.0f", sizes["Lempel-Ziv"], sizes["Run-Length Encoding"])
	}
	t.Log("\n" + tab.String())
}

func TestTable3And4Shape(t *testing.T) {
	t3, t4, err := Table3And4(t.TempDir(), QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(t3.Rows) != 4 || len(t4.Rows) != 4 {
		t.Fatalf("rows: %d, %d", len(t3.Rows), len(t4.Rows))
	}
	// the select and subselect bytes-read columns
	checkSizes(t, "table3", t3, 1, 1, 3)
	checkSizes(t, "table4", t4, 1, 1, 3)
	read := func(tab Table, method string, col int) float64 {
		for _, r := range tab.Rows {
			if r[0] == method {
				return parseBytes(t, r[col])
			}
		}
		t.Fatalf("method %q missing", method)
		return 0
	}
	// snapshot: LZ variant reads the least; uncompressed subselect reads
	// the whole array while chunked variants read one chunk
	if read(t3, "Chunks + Deltas + LZ", 1) >= read(t3, "Chunks", 1) {
		t.Error("LZ variant did not reduce snapshot bytes read")
	}
	if read(t3, "Uncompressed", 3) <= read(t3, "Chunks", 3)*4 {
		t.Error("uncompressed subselect should read far more than chunked")
	}
	// range query: chunks-only reads ~16x the delta variants
	if read(t4, "Chunks", 1) <= read(t4, "Chunks + Deltas", 1) {
		t.Error("chunks-only range read less than deltas variant")
	}
	t.Log("\n" + t3.String() + "\n" + t4.String())
}

func TestTable5Shape(t *testing.T) {
	tab, err := Table5(t.TempDir(), QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	checkSizes(t, "table5", tab, 2, 2)
	size := func(data, comp string) float64 {
		for _, r := range tab.Rows {
			if r[0] == data && r[1] == comp {
				return parseBytes(t, r[2])
			}
		}
		t.Fatalf("row %s/%s missing", data, comp)
		return 0
	}
	// deltas compress both datasets; CNet compresses dramatically
	// (paper: 3:1 on NOAA, 35:1 on CNet)
	if size("NOAA", "H") >= size("NOAA", "None") {
		t.Error("NOAA deltas did not compress")
	}
	if size("CNet", "H")*4 >= size("CNet", "None") {
		t.Error("CNet deltas should compress heavily")
	}
	if size("NOAA", "H+LZ") > size("NOAA", "H") {
		t.Error("adding LZ grew the NOAA store")
	}
	t.Log("\n" + tab.String())
}

func TestTable6Shape(t *testing.T) {
	tab, err := Table6(t.TempDir(), QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	var ours, svn float64
	var gitFailed bool
	for _, r := range tab.Rows {
		switch r[0] {
		case "Hybrid+LZ":
			ours = parseBytes(t, r[2])
		case "SVN-like":
			svn = parseBytes(t, r[2])
		case "Git-like":
			gitFailed = strings.Contains(r[4], "out of memory")
		}
	}
	checkSizes(t, "table6", tab, 1, 2)
	// paper: ours ~8x smaller than SVN on OSM; Git fails
	if ours*2 >= svn {
		t.Errorf("ours %.0f not well below svn %.0f", ours, svn)
	}
	if !gitFailed {
		t.Error("git-like did not hit the memory budget on OSM-scale data")
	}
	t.Log("\n" + tab.String())
}

func TestTable7Shape(t *testing.T) {
	tab, err := Table7(t.TempDir(), QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	sizes := map[string]float64{}
	for _, r := range tab.Rows {
		sizes[r[0]] = parseBytes(t, r[2])
	}
	checkSizes(t, "table7", tab, 1, 2)
	// paper: H+LZ yields the smallest data set on NOAA
	for name, sz := range sizes {
		if name == "Hybrid+LZ" {
			continue
		}
		if sizes["Hybrid+LZ"] > sz {
			t.Errorf("Hybrid+LZ %.0f larger than %s %.0f", sizes["Hybrid+LZ"], name, sz)
		}
	}
	t.Log("\n" + tab.String())
}

func TestMaterializationShape(t *testing.T) {
	tab, err := Materialization(t.TempDir(), QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	checkSizes(t, "materialization", tab, 2, 2)
	size := func(data, layoutName string) float64 {
		for _, r := range tab.Rows {
			if r[0] == data && r[1] == layoutName {
				return parseBytes(t, r[2])
			}
		}
		t.Fatalf("row %s/%s missing", data, layoutName)
		return 0
	}
	// periodic data: optimal must be far smaller than the linear chain
	for _, ds := range []string{"Panorama", "Periodic n=2", "Periodic n=3"} {
		lin := size(ds, "linear")
		opt := size(ds, "optimal")
		if opt*2 >= lin {
			t.Errorf("%s: optimal %.0f not well below linear %.0f", ds, opt, lin)
		}
	}
	// E9: the note must confirm the linear-chain degeneration
	found := false
	for _, n := range tab.Notes {
		if strings.Contains(n, "degenerates to a linear delta chain") {
			found = true
		}
	}
	if !found {
		t.Errorf("smooth-data linear-chain check failed: %v", tab.Notes)
	}
	t.Log("\n" + tab.String())
}

func TestWorkloadAwareShape(t *testing.T) {
	tab, err := WorkloadAware(t.TempDir(), QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	// the data size and bytes-read columns
	checkSizes(t, "workload", tab, 1, 1, 3)
	read := map[string]float64{}
	for _, r := range tab.Rows {
		read[r[0]] = parseBytes(t, r[3])
	}
	// the I/O-optimal layout must not read more than the space-optimal
	if read["I/O optimal"] > read["space optimal"] {
		t.Errorf("I/O-optimal read %.0f > space-optimal %.0f", read["I/O optimal"], read["space optimal"])
	}
	t.Log("\n" + tab.String())
}

func TestTableRendering(t *testing.T) {
	tab := Table{
		Title:   "T",
		Columns: []string{"A", "BB"},
		Rows:    [][]string{{"x", "yyyy"}},
		Notes:   []string{"n"},
	}
	out := tab.String()
	for _, want := range []string{"== T ==", "A", "BB", "yyyy", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
}

func TestAblationsShape(t *testing.T) {
	tab, err := Ablations(t.TempDir(), QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 7 {
		t.Fatalf("%d ablation rows, want 7", len(tab.Rows))
	}
	// both chain placements report a row: the data log and the chains
	// Compact builds from it
	var colocFiles, logFiles string
	for _, r := range tab.Rows {
		if r[0] == "chain placement" {
			if r[1] == "co-located chains" {
				colocFiles = r[3]
			} else {
				logFiles = r[3]
			}
		}
	}
	if colocFiles == "" || logFiles == "" {
		t.Fatal("chain placement rows missing")
	}
	t.Log("\n" + tab.String())
}
