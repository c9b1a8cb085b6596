// Quickstart: create a versioned array, commit a few versions, and read
// them back — whole versions, regions, and multi-version stacks.
package main

import (
	"fmt"
	"log"
	"os"

	"arrayvers"
)

func main() {
	dir, err := os.MkdirTemp("", "arrayvers-quickstart-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	store, err := arrayvers.Open(dir, arrayvers.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}

	// 1. Create a named array: 16x16 grid of float32 temperatures.
	err = store.CreateArray(arrayvers.Schema{
		Name:  "Temps",
		Dims:  []arrayvers.Dimension{{Name: "Y", Lo: 0, Hi: 15}, {Name: "X", Lo: 0, Hi: 15}},
		Attrs: []arrayvers.Attribute{{Name: "Celsius", Type: arrayvers.Float32}},
	})
	if err != nil {
		log.Fatal(err)
	}

	// 2. Commit three versions. The store is no-overwrite: each insert
	// creates a new version, automatically delta-encoded against its
	// predecessor when that is smaller.
	for v := 0; v < 3; v++ {
		grid, err := arrayvers.NewDense(arrayvers.Float32, []int64{16, 16})
		if err != nil {
			log.Fatal(err)
		}
		for i := int64(0); i < grid.NumCells(); i++ {
			grid.SetFloat(i, 20.0+float64(v)+0.01*float64(i))
		}
		id, err := store.Insert("Temps", arrayvers.DensePayload(grid))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("committed Temps@%d\n", id)
	}

	// 3. Read a whole version back.
	plane, err := store.Select("Temps", 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Temps@2 cell (0,0) = %.2f°C\n", plane.Dense.Float(0))

	// 4. Read a hyper-rectangle of one version (only overlapping chunks
	// are touched on disk).
	region, err := store.SelectRegion("Temps", 3, arrayvers.NewBox([]int64{4, 4}, []int64{8, 8}))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Temps@3 region shape = %v\n", region.Dense.Shape())

	// 5. Stack all three versions into a 3D array (time as first axis).
	stack, err := store.SelectMulti("Temps", []int{1, 2, 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stacked shape = %v (versions x Y x X)\n", stack.Shape())

	// 6. Inspect version metadata.
	info, err := store.Info("Temps")
	if err != nil {
		log.Fatal(err)
	}
	for _, vi := range info.Versions {
		enc := "materialized"
		if len(vi.DeltaBases) > 0 {
			enc = fmt.Sprintf("delta vs %v", vi.DeltaBases)
		}
		fmt.Printf("Temps@%d: %d bytes on disk, %s\n", vi.ID, vi.Bytes, enc)
	}
	fmt.Printf("total on disk: %d bytes for %d versions (logical %d bytes/version)\n",
		info.DiskBytes, info.NumVersions, info.LogicalSize)
}
