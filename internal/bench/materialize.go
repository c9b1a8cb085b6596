package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"arrayvers/internal/array"
	"arrayvers/internal/core"
	"arrayvers/internal/datasets"
	"arrayvers/internal/layout"
	"arrayvers/internal/matmat"
	"arrayvers/internal/workload"
)

// Materialization — E8/E9 (§V-D): the optimal materialization algorithm
// vs a simple linear delta chain, on the Panorama substitute, on the
// synthetic periodic patterns (n=2, n=3), and on smoothly evolving data
// where the optimal layout must degenerate to a linear chain.
func Materialization(workDir string, sc Scale) (Table, error) {
	t := Table{
		Title:   "§V-D — Optimal materialization vs linear delta chain",
		Columns: []string{"Data Set", "Layout", "Data Size", "Load/Reorg Time"},
	}

	runCase := func(label string, versions []*array.Dense) error {
		for _, policy := range []core.LayoutPolicy{core.PolicyLinearChain, core.PolicyOptimal} {
			dir := filepath.Join(workDir, "mat-"+sanitizeName(label)+policy.String())
			opts := core.DefaultOptions()
			opts.ChunkBytes = sc.ChunkBytes
			s, err := core.Open(dir, opts)
			if err != nil {
				return err
			}
			sch := array.Schema{
				Name:  "A",
				Dims:  []array.Dimension{{Name: "Y", Lo: 0, Hi: versions[0].Shape()[0] - 1}, {Name: "X", Lo: 0, Hi: versions[0].Shape()[1] - 1}},
				Attrs: []array.Attribute{{Name: "V", Type: versions[0].DType()}},
			}
			if err := s.CreateArray(sch); err != nil {
				return err
			}
			var loadTime time.Duration
			d, err := timed(func() error {
				for _, v := range versions {
					if _, err := s.Insert("A", core.DensePayload(v)); err != nil {
						return err
					}
				}
				// reorganization is where the layout algorithm runs: it
				// decodes every version, prices the O(n²) materialization
				// matrix and re-encodes. The paper reports the matrix
				// dominating; with the sampled matrix sharing one draw
				// (internal/matmat), decode and re-encode dominate here
				return s.Reorganize("A", core.ReorganizeOptions{Policy: policy, MatrixSample: 2048})
			})
			if err != nil {
				return err
			}
			loadTime = d
			size := diskBytes(s)
			t.Rows = append(t.Rows, []string{label, policy.String(), fmtBytes(size), fmtDur(loadTime)})
			os.RemoveAll(dir)
		}
		return nil
	}

	pano := datasets.Panorama(datasets.PanoramaConfig{
		Side: sc.PanoSide, Versions: sc.PanoVersions, Scenes: sc.PanoScenes, Seed: sc.Seed,
	})
	if err := runCase("Panorama", pano); err != nil {
		return Table{}, fmt.Errorf("panorama: %w", err)
	}
	for _, n := range []int{2, 3} {
		per := datasets.Periodic(datasets.PeriodicConfig{
			Period: n, Versions: sc.PeriodicVersions, SizeBytes: sc.PeriodicBytes, Seed: sc.Seed + int64(n),
		})
		if err := runCase(fmt.Sprintf("Periodic n=%d", n), per); err != nil {
			return Table{}, fmt.Errorf("periodic n=%d: %w", n, err)
		}
	}

	// E9: smooth data — report whether the optimal layout over the exact
	// matrix is a linear chain, as §V-D confirms. The planes are at hand,
	// so every pairwise delta is encoded; no store is needed
	smooth := datasets.Smooth(sc.NOAASide, 8, sc.Seed)
	mm, err := matmat.Compute(smooth, matmat.Options{})
	if err != nil {
		return Table{}, err
	}
	l := layout.Optimal(mm)
	if l.IsLinearChain() {
		t.Notes = append(t.Notes, "smooth data: optimal layout degenerates to a linear delta chain (as §V-D)")
	} else {
		t.Notes = append(t.Notes, fmt.Sprintf("smooth data: optimal layout is NOT a linear chain: %v", l.Parent))
	}
	return t, nil
}

// WorkloadAware — E10 (§V-D last ¶): overlapping range queries (10
// versions wide, overlapping by 4) executed on the space-optimal layout
// vs the I/O-optimal (workload-aware) layout.
func WorkloadAware(workDir string, sc Scale) (Table, error) {
	nVersions := sc.PanoVersions // enough versions for several overlapping ranges
	noaa := datasets.NOAA(datasets.NOAAConfig{Side: sc.NOAASide, Versions: nVersions, Attrs: 1, Seed: sc.Seed})
	width, overlap := 10, 4
	if nVersions < width+2 {
		width = nVersions/2 + 1
		overlap = width / 2
	}
	ops := workload.OverlappingRanges(nVersions, width, overlap)
	queries := workload.ToQueries(ops)

	t := Table{
		Title:   fmt.Sprintf("§V-D — Workload-aware layout (ranges of %d overlapping by %d)", width, overlap),
		Columns: []string{"Layout", "Data Size", "Workload Time", "Bytes Read"},
	}
	for _, cfg := range []struct {
		label  string
		policy core.LayoutPolicy
	}{
		{"space optimal", core.PolicyOptimal},
		{"I/O optimal", core.PolicyWorkloadAware},
	} {
		dir := filepath.Join(workDir, "wa-"+sanitizeName(cfg.label))
		opts := core.DefaultOptions()
		opts.ChunkBytes = sc.ChunkBytes
		s, err := core.Open(dir, opts)
		if err != nil {
			return Table{}, err
		}
		sch := array.Schema{
			Name:  "W",
			Dims:  []array.Dimension{{Name: "Y", Lo: 0, Hi: sc.NOAASide - 1}, {Name: "X", Lo: 0, Hi: sc.NOAASide - 1}},
			Attrs: []array.Attribute{{Name: "V", Type: array.Float32}},
		}
		if err := s.CreateArray(sch); err != nil {
			return Table{}, err
		}
		for _, v := range noaa {
			if _, err := s.Insert("W", core.DensePayload(v[0])); err != nil {
				return Table{}, err
			}
		}
		if err := s.Reorganize("W", core.ReorganizeOptions{
			Policy:   cfg.policy,
			Workload: queries,
		}); err != nil {
			return Table{}, fmt.Errorf("%s: %w", cfg.label, err)
		}
		size := diskBytes(s)
		s.ResetStats()
		// average over several runs, as the paper does (30 runs)
		const runs = 5
		d, err := timed(func() error {
			for r := 0; r < runs; r++ {
				if err := runOps(s, "W", ops, sc.Seed); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return Table{}, err
		}
		read := s.Stats().BytesRead
		t.Rows = append(t.Rows, []string{cfg.label, fmtBytes(size), fmtDur(d / runs), fmtBytes(read / runs)})
		os.RemoveAll(dir)
	}
	return t, nil
}
