package bench

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"arrayvers/internal/array"
	"arrayvers/internal/chunk"
	"arrayvers/internal/compress"
	"arrayvers/internal/core"
	"arrayvers/internal/datasets"
	"arrayvers/internal/vcs"
)

// osmVariant describes one storage configuration of Tables III/IV.
type osmVariant struct {
	name string
	opts core.Options
}

func osmVariants(sc Scale) []osmVariant {
	base := core.DefaultOptions()
	base.ChunkBytes = sc.ChunkBytes
	cd := base
	cd.Codec = compress.None
	chunksOnly := base
	chunksOnly.AutoDelta = false
	cdlz := base
	cdlz.Codec = compress.LZ
	uncompressed := base
	uncompressed.AutoDelta = false
	uncompressed.ChunkBytes = sc.OSMSide * sc.OSMSide * 2 // one chunk = whole array
	return []osmVariant{
		{"Chunks + Deltas", cd},
		{"Chunks", chunksOnly},
		{"Chunks + Deltas + LZ", cdlz},
		{"Uncompressed", uncompressed},
	}
}

func osmSchema(sc Scale) array.Schema {
	return array.Schema{
		Name:  "OSM",
		Dims:  []array.Dimension{{Name: "Y", Lo: 0, Hi: sc.OSMSide - 1}, {Name: "X", Lo: 0, Hi: sc.OSMSide - 1}},
		Attrs: []array.Attribute{{Name: "Pixel", Type: array.UInt8}},
	}
}

// buildOSMStore imports the OSM substitute under one variant and returns
// the store plus the import duration.
func buildOSMStore(dir string, sc Scale, v osmVariant, tiles []*array.Dense) (*core.Store, time.Duration, error) {
	s, err := core.Open(dir, v.opts)
	if err != nil {
		return nil, 0, err
	}
	if err := s.CreateArray(osmSchema(sc)); err != nil {
		return nil, 0, err
	}
	d, err := timed(func() error {
		for _, tile := range tiles {
			if _, err := s.Insert("OSM", core.DensePayload(tile)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return s, d, nil
}

// subselectBox returns a region covering exactly one chunk of the
// chunked variants (the paper's subselect reads "only one chunk,
// approximately 10MB uncompressed").
func subselectBox(sc Scale) array.Box {
	ck, err := chunk.New([]int64{sc.OSMSide, sc.OSMSide}, 1, sc.ChunkBytes)
	if err != nil {
		// unreachable with sane scales; fall back to one cell
		return array.NewBox([]int64{0, 0}, []int64{1, 1})
	}
	// the chunk containing the array center
	origin := ck.ChunkOf([]int64{sc.OSMSide / 2, sc.OSMSide / 2})
	return ck.Box(origin)
}

// Table3And4 — E3/E4: OSM snapshot queries (Table III) and 16-version
// range queries (Table IV), reporting bytes read from disk and wall time
// per storage variant.
func Table3And4(workDir string, sc Scale) (Table, Table, error) {
	tiles := datasets.OSM(datasets.OSMConfig{Side: sc.OSMSide, Versions: sc.OSMVersions, Seed: sc.Seed})
	t3 := Table{
		Title:   "Table III — OSM substitute, snapshot query (latest version)",
		Columns: []string{"Method", "Select Bytes Read", "Select Time", "Subselect Bytes Read", "Subselect Time"},
	}
	t4 := Table{
		Title:   fmt.Sprintf("Table IV — OSM substitute, range query (%d versions)", sc.OSMVersions),
		Columns: []string{"Method", "Select Bytes Read", "Select Time", "Subselect Bytes Read", "Subselect Time"},
	}
	sub := subselectBox(sc)
	head := sc.OSMVersions
	all := make([]int, sc.OSMVersions)
	for i := range all {
		all[i] = i + 1
	}
	for _, v := range osmVariants(sc) {
		dir := filepath.Join(workDir, "osm-"+sanitizeName(v.name))
		s, _, err := buildOSMStore(dir, sc, v, tiles)
		if err != nil {
			return Table{}, Table{}, fmt.Errorf("%s: %w", v.name, err)
		}
		// Table III: snapshot
		s.ResetStats()
		selTime, err := timed(func() error {
			_, err := s.Select("OSM", head)
			return err
		})
		if err != nil {
			return Table{}, Table{}, err
		}
		selRead := s.Stats().BytesRead
		s.ResetStats()
		subTime, err := timed(func() error {
			_, err := s.SelectRegion("OSM", head, sub)
			return err
		})
		if err != nil {
			return Table{}, Table{}, err
		}
		subRead := s.Stats().BytesRead
		t3.Rows = append(t3.Rows, []string{v.name, fmtBytes(selRead), fmtDur(selTime), fmtBytes(subRead), fmtDur(subTime)})

		// Table IV: 16-version range
		s.ResetStats()
		rangeTime, err := timed(func() error {
			_, err := s.SelectMulti("OSM", all)
			return err
		})
		if err != nil {
			return Table{}, Table{}, err
		}
		rangeRead := s.Stats().BytesRead
		s.ResetStats()
		rangeSubTime, err := timed(func() error {
			_, err := core.StackPlanes(s.Read(context.Background(), core.ReadQuery{Array: "OSM", IDs: all, Box: sub}))
			return err
		})
		if err != nil {
			return Table{}, Table{}, err
		}
		rangeSubRead := s.Stats().BytesRead
		t4.Rows = append(t4.Rows, []string{v.name, fmtBytes(rangeRead), fmtDur(rangeTime), fmtBytes(rangeSubRead), fmtDur(rangeSubTime)})
		os.RemoveAll(dir)
	}
	return t3, t4, nil
}

// Table6 — E6: SVN and Git performance on the OSM substitute, compared
// to our uncompressed and Hybrid+LZ configurations.
func Table6(workDir string, sc Scale) (Table, error) {
	tiles := datasets.OSM(datasets.OSMConfig{Side: sc.OSMSide, Versions: sc.OSMVersions, Seed: sc.Seed})
	t := Table{
		Title:   "Table VI — SVN and Git vs ours on the OSM substitute",
		Columns: []string{"Method", "Import Time", "Data Size", "Array Select", "Subselect"},
	}
	sub := subselectBox(sc)
	head := sc.OSMVersions

	// ours: Uncompressed and Hybrid+LZ variants
	for _, v := range []osmVariant{osmVariants(sc)[3], osmVariants(sc)[2]} {
		name := map[string]string{"Uncompressed": "Uncompressed", "Chunks + Deltas + LZ": "Hybrid+LZ"}[v.name]
		dir := filepath.Join(workDir, "t6-"+sanitizeName(v.name))
		s, importTime, err := buildOSMStore(dir, sc, v, tiles)
		if err != nil {
			return Table{}, err
		}
		info, err := s.Info("OSM")
		if err != nil {
			return Table{}, err
		}
		selTime, err := timed(func() error { _, err := s.Select("OSM", head); return err })
		if err != nil {
			return Table{}, err
		}
		subTime, err := timed(func() error { _, err := s.SelectRegion("OSM", head, sub); return err })
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{name, fmtDur(importTime), fmtBytes(info.DiskBytes), fmtDur(selTime), fmtDur(subTime)})
		os.RemoveAll(dir)
	}

	// SVN-like: tiles exceed the binary deltification cap, so the repo
	// stores fulltexts (the paper: SVN stored the full 16 GB)
	svnDir := filepath.Join(workDir, "t6-svn")
	svn, err := vcs.NewSVN(svnDir, vcs.SVNOptions{MaxDeltaBytes: sc.OSMSide * sc.OSMSide / 2})
	if err != nil {
		return Table{}, err
	}
	svnImport, err := timed(func() error {
		for _, tile := range tiles {
			if _, err := svn.Commit("osm.dat", array.MarshalDense(tile)); err != nil {
				return err
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
	var checkout *array.Dense
	svnSel, err := timed(func() error {
		raw, err := svn.Checkout("osm.dat", sc.OSMVersions-1)
		if err != nil {
			return err
		}
		checkout, err = array.UnmarshalDense(raw)
		return err
	})
	if err != nil {
		return Table{}, err
	}
	// SVN has no partial reads: a subselect checks out the whole file and
	// slices it
	svnSub, err := timed(func() error {
		raw, err := svn.Checkout("osm.dat", sc.OSMVersions-1)
		if err != nil {
			return err
		}
		arr, err := array.UnmarshalDense(raw)
		if err != nil {
			return err
		}
		_, err = arr.Slice(sub)
		return err
	})
	if err != nil {
		return Table{}, err
	}
	_ = checkout
	t.Rows = append(t.Rows, []string{"SVN-like", fmtDur(svnImport), fmtBytes(svnSize), fmtDur(svnSel), fmtDur(svnSub)})
	os.RemoveAll(svnDir)

	// Git-like: the tiles exceed the memory budget (the paper: "Git ran
	// out of memory on our test machine")
	gitDir := filepath.Join(workDir, "t6-git")
	git, err := vcs.NewGit(gitDir, vcs.GitOptions{MemoryBudget: sc.GitMemoryBudget})
	if err != nil {
		return Table{}, err
	}
	_, gitErr := git.Commit("osm.dat", array.MarshalDense(tiles[0]))
	if gitErr == vcs.ErrOutOfMemory {
		t.Rows = append(t.Rows, []string{"Git-like", "—", "—", "—", "— (out of memory)"})
	} else if gitErr != nil {
		return Table{}, gitErr
	} else {
		t.Notes = append(t.Notes, "Git-like import unexpectedly fit in the memory budget at this scale")
	}
	os.RemoveAll(gitDir)
	return t, nil
}

func sanitizeName(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		}
	}
	return string(out)
}
