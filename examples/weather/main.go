// Weather: the paper's motivating NOAA workload — a sensor grid sampled
// every 15 minutes, kept fully versioned. Demonstrates storage-mode
// trade-offs (materialized vs delta chains vs optimal layout) and
// workload-aware reorganization for overlapping range scans (§IV-D,
// §V-D).
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"arrayvers"
	"arrayvers/internal/datasets"
)

func main() {
	dir, err := os.MkdirTemp("", "arrayvers-weather-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	opts := arrayvers.DefaultOptions()
	opts.ChunkBytes = 64 << 10
	store, err := arrayvers.Open(dir, opts)
	if err != nil {
		log.Fatal(err)
	}

	// a day of "specific humidity" grids at 96x15-minute cadence,
	// downsampled here to 24 versions on a 128x128 grid
	const versions = 24
	grids := datasets.NOAA(datasets.NOAAConfig{Side: 128, Versions: versions, Attrs: 1, Seed: 7})

	err = store.CreateArray(arrayvers.Schema{
		Name:  "Humidity",
		Dims:  []arrayvers.Dimension{{Name: "Y", Lo: 0, Hi: 127}, {Name: "X", Lo: 0, Hi: 127}},
		Attrs: []arrayvers.Attribute{{Name: "SpecificHumidity", Type: arrayvers.Float32}},
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, g := range grids {
		if _, err := store.Insert("Humidity", arrayvers.DensePayload(g[0])); err != nil {
			log.Fatal(err)
		}
	}
	info, _ := store.Info("Humidity")
	raw := info.LogicalSize * int64(versions)
	fmt.Printf("ingested %d versions: %d KB on disk vs %d KB raw (%.1fx)\n",
		versions, info.DiskBytes/1024, raw/1024, float64(raw)/float64(info.DiskBytes))

	// a scientist tracking a storm cell re-reads overlapping version
	// ranges; tell the optimizer about it
	workload := []arrayvers.Query{
		arrayvers.Range(1, 10, 0.4),
		arrayvers.Range(7, 16, 0.4),
		arrayvers.Range(13, 22, 0.2),
	}
	runScan := func(label string) {
		store.ResetStats()
		start := time.Now()
		for _, q := range workload {
			if _, err := store.SelectMulti("Humidity", q.Versions); err != nil {
				log.Fatal(err)
			}
		}
		stats := store.Stats()
		fmt.Printf("%-22s %6.1f KB read, %v\n", label, float64(stats.BytesRead)/1024, time.Since(start).Round(time.Millisecond))
	}

	if err := store.Reorganize("Humidity", arrayvers.ReorganizeOptions{Policy: arrayvers.PolicyOptimal}); err != nil {
		log.Fatal(err)
	}
	runScan("space-optimal layout:")

	if err := store.Reorganize("Humidity", arrayvers.ReorganizeOptions{
		Policy:   arrayvers.PolicyWorkloadAware,
		Workload: workload,
	}); err != nil {
		log.Fatal(err)
	}
	runScan("workload-aware layout:")

	// region query: follow one storm cell through time as a 3D slab
	cell := arrayvers.NewBox([]int64{40, 40}, []int64{72, 72})
	slab, err := arrayvers.StackPlanes(store.Read(context.Background(), arrayvers.ReadQuery{
		Array: "Humidity", IDs: []int{5, 6, 7, 8}, Box: cell,
	}))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("storm-cell slab: %v (time x Y x X)\n", slab.Shape())
}
