// Package bench regenerates every quantitative table and experiment of
// the paper's evaluation section (§V) on the synthetic dataset
// substitutes, at laptop scale. Each runner returns a Table whose rows
// mirror the paper's; experiment ids (E1–E10) follow DESIGN.md's
// experiment index.
package bench

import (
	"fmt"
	"strings"
	"time"

	"arrayvers/internal/core"
)

// Table is one formatted experiment result.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	// Notes carries free-form observations printed under the table.
	Notes []string
}

// String renders the table as aligned text.
func (t Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteString("\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Scale holds the size knobs for every experiment. The paper ran at
// GB scale on real data; defaults here are laptop scale with the same
// shape. The E-ids on each knob follow DESIGN.md's experiment index.
type Scale struct {
	// E1/E2/E5/E7/E10: NOAA substitute
	NOAASide     int64
	NOAAVersions int
	NOAAAttrs    int
	// E3/E4/E6: OSM substitute
	OSMSide     int64
	OSMVersions int
	// E5: ConceptNet substitute
	CNetDim      int64
	CNetNNZ      int
	CNetVersions int
	// E8: Panorama and synthetic periodic data
	PanoSide         int64
	PanoVersions     int
	PanoScenes       int
	PeriodicVersions int
	PeriodicBytes    int64
	// shared
	ChunkBytes  int64
	BlockRadius int // MPEG-2-like search radius (paper: 16)
	// Git baseline memory budget (paper machine: 8 GB vs 1 GB tiles)
	GitMemoryBudget int64
	Seed            int64
}

// DefaultScale is the full laptop-scale configuration used by cmd/avbench.
func DefaultScale() Scale {
	return Scale{
		NOAASide: 192, NOAAVersions: 10, NOAAAttrs: 9,
		OSMSide: 2048, OSMVersions: 16,
		CNetDim: 1_000_000, CNetNNZ: 60_000, CNetVersions: 8,
		PanoSide: 192, PanoVersions: 24, PanoScenes: 4,
		PeriodicVersions: 40, PeriodicBytes: 256 << 10,
		ChunkBytes:  256 << 10,
		BlockRadius: 8,
		// 4 MB budget vs 4 MB tiles (2x commit working set) reproduces the
		// paper's 8 GB-machine / 1 GB-tile OOM; NOAA repack fits
		GitMemoryBudget: 4 << 20,
		Seed:            42,
	}
}

// QuickScale is a reduced configuration for go test benchmarks.
func QuickScale() Scale {
	return Scale{
		NOAASide: 64, NOAAVersions: 5, NOAAAttrs: 3,
		OSMSide: 512, OSMVersions: 6,
		CNetDim: 100_000, CNetNNZ: 5_000, CNetVersions: 6,
		PanoSide: 64, PanoVersions: 12, PanoScenes: 3,
		PeriodicVersions: 12, PeriodicBytes: 16 << 10,
		ChunkBytes:      32 << 10,
		BlockRadius:     4,
		GitMemoryBudget: 512 << 10,
		Seed:            42,
	}
}

// timed runs fn and returns its wall-clock duration.
func timed(fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	return time.Since(start), err
}

// diskBytes sums the on-disk payload bytes of every array in s.
func diskBytes(s *core.Store) int64 {
	total := int64(0)
	for _, name := range s.ListArrays() {
		info, _ := s.Info(name)
		total += info.DiskBytes
	}
	return total
}

func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.3fs", d.Seconds())
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
