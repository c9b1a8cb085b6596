package bench

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"arrayvers/internal/array"
	"arrayvers/internal/compress"
	"arrayvers/internal/core"
	"arrayvers/internal/datasets"
	"arrayvers/internal/vcs"
	"arrayvers/internal/workload"
)

// compression variants of Table V.
type compVariant struct {
	name string
	opts func(core.Options) core.Options
}

func compVariants(sc Scale) []compVariant {
	return []compVariant{
		{"H+LZ", func(o core.Options) core.Options { o.Codec = compress.LZ; return o }},
		{"H", func(o core.Options) core.Options { return o }},
		{"None", func(o core.Options) core.Options { o.AutoDelta = false; return o }},
	}
}

// Table5 — E5: the five workloads on the NOAA (dense) and ConceptNet
// (sparse) substitutes under three compression configurations.
func Table5(workDir string, sc Scale) (Table, error) {
	t := Table{
		Title:   "Table V — Workloads on NOAA and ConceptNet substitutes",
		Columns: []string{"Data", "Comp.", "Size", "Head", "Rand.", "Range", "Up.", "Mix."},
	}
	noaa := datasets.NOAA(datasets.NOAAConfig{Side: sc.NOAASide, Versions: sc.NOAAVersions, Attrs: 1, Seed: sc.Seed})
	cnet := datasets.ConceptNet(datasets.ConceptNetConfig{
		Dim: sc.CNetDim, NNZ: sc.CNetNNZ, Versions: sc.CNetVersions, Seed: sc.Seed,
	})
	for _, variant := range compVariants(sc) {
		row, err := table5Row(workDir, sc, "NOAA", variant, func(s *core.Store) (int, error) {
			sch := array.Schema{
				Name:  "NOAA",
				Dims:  []array.Dimension{{Name: "Y", Lo: 0, Hi: sc.NOAASide - 1}, {Name: "X", Lo: 0, Hi: sc.NOAASide - 1}},
				Attrs: []array.Attribute{{Name: "V", Type: array.Float32}},
			}
			if err := s.CreateArray(sch); err != nil {
				return 0, err
			}
			for _, v := range noaa {
				if _, err := s.Insert("NOAA", core.DensePayload(v[0])); err != nil {
					return 0, err
				}
			}
			return len(noaa), nil
		})
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, row)
	}
	for _, variant := range compVariants(sc) {
		row, err := table5Row(workDir, sc, "CNet", variant, func(s *core.Store) (int, error) {
			sch := array.Schema{
				Name:  "CNet",
				Dims:  []array.Dimension{{Name: "I", Lo: 0, Hi: sc.CNetDim - 1}, {Name: "J", Lo: 0, Hi: sc.CNetDim - 1}},
				Attrs: []array.Attribute{{Name: "W", Type: array.Int32}},
			}
			if err := s.CreateArray(sch); err != nil {
				return 0, err
			}
			for _, v := range cnet {
				if _, err := s.Insert("CNet", core.SparsePayload(v)); err != nil {
					return 0, err
				}
			}
			return len(cnet), nil
		})
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func table5Row(workDir string, sc Scale, data string, variant compVariant, load func(*core.Store) (int, error)) ([]string, error) {
	opts := core.DefaultOptions()
	opts.ChunkBytes = sc.ChunkBytes
	opts = variant.opts(opts)
	dir := filepath.Join(workDir, "t5-"+data+"-"+sanitizeName(variant.name))
	defer os.RemoveAll(dir)
	s, err := core.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	n, err := load(s)
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", data, variant.name, err)
	}
	size := diskBytes(s)
	row := []string{data, variant.name, fmtBytes(size)}
	// Table V repetition counts
	suites := [][]workload.Op{
		workload.Head(n, 10, sc.Seed+1),
		workload.Random(n, 30, sc.Seed+2),
		workload.Range(n, 30, sc.Seed+3),
		workload.Updates(n, 5, sc.Seed+4),
		workload.Mixed(n, 15, sc.Seed+5),
	}
	for _, ops := range suites {
		d, err := timed(func() error { return runOps(s, data, ops, sc.Seed) })
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", data, variant.name, err)
		}
		row = append(row, fmtDur(d))
	}
	return row, nil
}

// runOps executes a workload against a store.
func runOps(s *core.Store, name string, ops []workload.Op, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	info, err := s.Info(name)
	if err != nil {
		return err
	}
	shape := info.Schema.Shape()
	sparse := info.SparseRep
	for _, op := range ops {
		switch op.Kind {
		case workload.SelectOne:
			if _, err := s.Select(name, op.Versions[0]); err != nil {
				return err
			}
		case workload.SelectRange:
			if sparse {
				if _, err := s.SelectSparseMulti(name, op.Versions, array.Box{}); err != nil {
					return err
				}
			} else {
				if _, err := s.SelectMulti(name, op.Versions); err != nil {
					return err
				}
			}
		case workload.Update:
			// a random modification derived from a random version
			updates := make([]core.CellUpdate, 4)
			for i := range updates {
				coords := make([]int64, len(shape))
				for d := range coords {
					coords[d] = rng.Int63n(shape[d])
				}
				updates[i] = core.CellUpdate{Coords: coords, Bits: int64(rng.Intn(1000))}
			}
			if _, err := s.Insert(name, core.DeltaListPayload(op.Versions[0], updates)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Table7 — E7: SVN and Git performance on the NOAA substitute, where
// every array is small enough for both baselines to handle.
func Table7(workDir string, sc Scale) (Table, error) {
	series := noaaSeries(sc)
	t := Table{
		Title:   "Table VII — SVN and Git vs ours on the NOAA substitute",
		Columns: []string{"Method", "Import Time", "Data Size", "1 Array Select"},
	}

	// ours: Uncompressed and Hybrid+LZ
	for _, mode := range []struct {
		name  string
		codec compress.Codec
		auto  bool
	}{
		{"Uncompressed", compress.None, false},
		{"Hybrid+LZ", compress.LZ, true},
	} {
		opts := core.DefaultOptions()
		opts.ChunkBytes = sc.ChunkBytes
		opts.Codec = mode.codec
		opts.AutoDelta = mode.auto
		dir := filepath.Join(workDir, "t7-"+sanitizeName(mode.name))
		s, err := core.Open(dir, opts)
		if err != nil {
			return Table{}, err
		}
		importTime, err := timed(func() error {
			for ai, chain := range series {
				name := fmt.Sprintf("NOAA%d", ai)
				sch := array.Schema{
					Name:  name,
					Dims:  []array.Dimension{{Name: "Y", Lo: 0, Hi: sc.NOAASide - 1}, {Name: "X", Lo: 0, Hi: sc.NOAASide - 1}},
					Attrs: []array.Attribute{{Name: "V", Type: array.Float32}},
				}
				if err := s.CreateArray(sch); err != nil {
					return err
				}
				for _, v := range chain {
					if _, err := s.Insert(name, core.DensePayload(v)); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			return Table{}, err
		}
		size := diskBytes(s)
		selTime, err := timed(func() error {
			for ai := range series {
				if _, err := s.Select(fmt.Sprintf("NOAA%d", ai), len(series[ai])); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{mode.name, fmtDur(importTime), fmtBytes(size), fmtDur(selTime)})
		os.RemoveAll(dir)
	}

	// SVN-like (deltification effective at this file size)
	svnDir := filepath.Join(workDir, "t7-svn")
	svn, err := vcs.NewSVN(svnDir, vcs.SVNOptions{})
	if err != nil {
		return Table{}, err
	}
	svnImport, err := timed(func() error {
		for ai, chain := range series {
			path := fmt.Sprintf("noaa%d.dat", ai)
			for _, v := range chain {
				if _, err := svn.Commit(path, array.MarshalDense(v)); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return Table{}, err
	}
	svnSize, err := svn.DiskBytes()
	if err != nil {
		return Table{}, err
	}
	svnSel, err := timed(func() error {
		for ai := range series {
			raw, err := svn.Checkout(fmt.Sprintf("noaa%d.dat", ai), len(series[ai])-1)
			if err != nil {
				return err
			}
			if _, err := array.UnmarshalDense(raw); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return Table{}, err
	}
	t.Rows = append(t.Rows, []string{"SVN-like", fmtDur(svnImport), fmtBytes(svnSize), fmtDur(svnSel)})
	os.RemoveAll(svnDir)

	// Git-like with repack (the paper: Git loaded NOAA "although it took
	// much longer than the other systems")
	gitDir := filepath.Join(workDir, "t7-git")
	git, err := vcs.NewGit(gitDir, vcs.GitOptions{MemoryBudget: sc.GitMemoryBudget})
	if err != nil {
		return Table{}, err
	}
	gitImport, err := timed(func() error {
		for ai, chain := range series {
			path := fmt.Sprintf("noaa%d.dat", ai)
			for _, v := range chain {
				if _, err := git.Commit(path, array.MarshalDense(v)); err != nil {
					return err
				}
			}
		}
		return git.Repack()
	})
	if err != nil {
		return Table{}, fmt.Errorf("git on NOAA: %w", err)
	}
	gitSize, err := git.DiskBytes()
	if err != nil {
		return Table{}, err
	}
	gitSel, err := timed(func() error {
		for ai := range series {
			raw, err := git.Checkout(fmt.Sprintf("noaa%d.dat", ai), len(series[ai])-1)
			if err != nil {
				return err
			}
			if _, err := array.UnmarshalDense(raw); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return Table{}, err
	}
	t.Rows = append(t.Rows, []string{"Git-like", fmtDur(gitImport), fmtBytes(gitSize), fmtDur(gitSel)})
	os.RemoveAll(gitDir)

	return t, nil
}
