package bench

import (
	"fmt"
	"os"
	"path/filepath"

	"arrayvers/internal/array"
	"arrayvers/internal/core"
	"arrayvers/internal/datasets"
	"arrayvers/internal/matmat"
)

// Ablations isolates the design choices the paper motivates but does not
// table individually:
//
//   - chunk size (the 10 MB compile-time default, §III-B.1 / §V-B "we
//     experimented with various chunk sizes")
//   - co-located chains vs the data log writes append to (§III-B.3,
//     "co-located chains ... are more efficient"): the same versions
//     read before and after Compact rewrites them chunk column by
//     chunk column, each chain one run of the log
//   - sampled vs exact materialization-matrix construction (§IV-A)
func Ablations(workDir string, sc Scale) (Table, error) {
	t := Table{
		Title:   "Ablations — chunking, co-location, matrix sampling",
		Columns: []string{"Ablation", "Setting", "Size", "Metric"},
	}
	noaa := datasets.NOAA(datasets.NOAAConfig{Side: sc.NOAASide, Versions: sc.NOAAVersions, Attrs: 1, Seed: sc.Seed})

	build := func(dir string, opts core.Options) (*core.Store, error) {
		s, err := core.Open(dir, opts)
		if err != nil {
			return nil, err
		}
		sch := array.Schema{
			Name:  "A",
			Dims:  []array.Dimension{{Name: "Y", Lo: 0, Hi: sc.NOAASide - 1}, {Name: "X", Lo: 0, Hi: sc.NOAASide - 1}},
			Attrs: []array.Attribute{{Name: "V", Type: array.Float32}},
		}
		if err := s.CreateArray(sch); err != nil {
			return nil, err
		}
		for _, v := range noaa {
			if _, err := s.Insert("A", core.DensePayload(v[0])); err != nil {
				return nil, err
			}
		}
		return s, nil
	}

	// 1. chunk size sweep: subselect cost vs chunk size
	for _, cb := range []int64{sc.ChunkBytes / 8, sc.ChunkBytes, sc.ChunkBytes * 8} {
		opts := core.DefaultOptions()
		opts.ChunkBytes = cb
		dir := filepath.Join(workDir, fmt.Sprintf("ab-chunk-%d", cb))
		s, err := build(dir, opts)
		if err != nil {
			return Table{}, err
		}
		box := array.NewBox([]int64{0, 0}, []int64{sc.NOAASide / 8, sc.NOAASide / 8})
		s.ResetStats()
		d, err := timed(func() error {
			_, err := s.SelectRegion("A", sc.NOAAVersions, box)
			return err
		})
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{
			"chunk size", fmtBytes(cb), fmtBytes(diskBytes(s)),
			fmt.Sprintf("subselect read %s in %s", fmtBytes(s.Stats().BytesRead), fmtDur(d)),
		})
		os.RemoveAll(dir)
	}

	// 2. co-location: the same versions as written (every frame in the
	// generation's data log) and after Compact rebuilt the log one chunk
	// column at a time; at the smallest chunk size above, so a
	// version spans several chunks and a write interleaves them
	{
		opts := core.DefaultOptions()
		opts.ChunkBytes = sc.ChunkBytes / 8
		dir := filepath.Join(workDir, "ab-coloc")
		s, err := build(dir, opts)
		if err != nil {
			return Table{}, err
		}
		for _, compacted := range []bool{false, true} {
			label := "data log"
			if compacted {
				label = "co-located chains"
				if err := s.Compact("A"); err != nil {
					return Table{}, err
				}
			}
			// chain read: reconstruct the newest version (walks every delta)
			s.ResetStats()
			d, err := timed(func() error {
				_, err := s.Select("A", sc.NOAAVersions)
				return err
			})
			if err != nil {
				return Table{}, err
			}
			chunkDirs, _ := filepath.Glob(filepath.Join(dir, "A", "chunks*"))
			t.Rows = append(t.Rows, []string{
				"chain placement", label, fmtBytes(diskBytes(s)),
				fmt.Sprintf("chain read %s, %d preads, %d files", fmtDur(d), s.Stats().ChunkPreads, countFiles(chunkDirs...)),
			})
		}
		os.RemoveAll(dir)
	}

	// 3. materialization matrix: exact vs sampled construction
	versions := make([]*array.Dense, len(noaa))
	for i := range noaa {
		versions[i] = noaa[i][0]
	}
	dExact, err := timed(func() error {
		_, err := matmat.Compute(versions, matmat.Options{})
		return err
	})
	if err != nil {
		return Table{}, err
	}
	var exact, sampled *matmat.Matrix
	exact, _ = matmat.Compute(versions, matmat.Options{})
	dSampled, err := timed(func() error {
		var err error
		sampled, err = matmat.Compute(versions, matmat.Options{Sample: 2048, Seed: 1})
		return err
	})
	if err != nil {
		return Table{}, err
	}
	maxErr := 0.0
	for i := 0; i < exact.N; i++ {
		for j := 0; j < i; j++ {
			e := float64(sampled.Cost[i][j])/float64(exact.Cost[i][j]) - 1
			if e < 0 {
				e = -e
			}
			if e > maxErr {
				maxErr = e
			}
		}
	}
	t.Rows = append(t.Rows,
		[]string{"matrix build", "exact O(n²) encodes", "—", fmtDur(dExact)},
		[]string{"matrix build", "2048-cell sample", "—",
			fmt.Sprintf("%s, max size error %.0f%%", fmtDur(dSampled), 100*maxErr)})

	return t, nil
}

func countFiles(dirs ...string) int {
	n := 0
	for _, dir := range dirs {
		filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
			if err == nil && !info.IsDir() {
				n++
			}
			return nil
		})
	}
	return n
}
