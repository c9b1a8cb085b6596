// Astronomy: the paper's introductory "what-if" scenario. Raw telescope
// imagery is processed by different "cooking" algorithms that classify
// celestial objects and reject sensor noise; each cooking run branches
// off the raw data, producing a tree of versions whose relationships the
// DBMS tracks (§I).
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"

	"arrayvers"
)

const side = 96

func main() {
	dir, err := os.MkdirTemp("", "arrayvers-astro-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	store, err := arrayvers.Open(dir, arrayvers.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}

	// 1. Raw telescope imagery: dark sky, a few stars, and hot pixels
	// (sensor noise that "is quite easy to confuse for a star").
	raw, stars, hotPixels := makeSkyFrame(3)
	err = store.CreateArray(arrayvers.Schema{
		Name:  "SurveyField7",
		Dims:  []arrayvers.Dimension{{Name: "Y", Lo: 0, Hi: side - 1}, {Name: "X", Lo: 0, Hi: side - 1}},
		Attrs: []arrayvers.Attribute{{Name: "Flux", Type: arrayvers.UInt16}},
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := store.Insert("SurveyField7", arrayvers.DensePayload(raw)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("raw frame: %d star(s) + %d hot pixel(s) embedded\n", len(stars), len(hotPixels))

	// 2. Two cooking algorithms branch off the same raw version.
	if err := store.Branch("SurveyField7", 1, "Cooked_Threshold"); err != nil {
		log.Fatal(err)
	}
	if err := store.Branch("SurveyField7", 1, "Cooked_Neighborhood"); err != nil {
		log.Fatal(err)
	}

	// cooking A: plain thresholding — keeps hot pixels (false positives)
	cookA := cook(raw, func(img *arrayvers.Dense, y, x int64) int64 {
		if img.BitsAt([]int64{y, x}) > 2000 {
			return 65535
		}
		return 0
	})
	if _, err := store.Insert("Cooked_Threshold", arrayvers.DensePayload(cookA)); err != nil {
		log.Fatal(err)
	}

	// cooking B: neighborhood check — a real star lights its neighbors,
	// a hot pixel does not
	cookB := cook(raw, func(img *arrayvers.Dense, y, x int64) int64 {
		if img.BitsAt([]int64{y, x}) <= 2000 {
			return 0
		}
		lit := 0
		for dy := int64(-1); dy <= 1; dy++ {
			for dx := int64(-1); dx <= 1; dx++ {
				ny, nx := y+dy, x+dx
				if (dy != 0 || dx != 0) && ny >= 0 && ny < side && nx >= 0 && nx < side &&
					img.BitsAt([]int64{ny, nx}) > 700 {
					lit++
				}
			}
		}
		if lit >= 3 {
			return 65535
		}
		return 0
	})
	if _, err := store.Insert("Cooked_Neighborhood", arrayvers.DensePayload(cookB)); err != nil {
		log.Fatal(err)
	}

	// 3. Compare the two cooked results against ground truth.
	for _, name := range []string{"Cooked_Threshold", "Cooked_Neighborhood"} {
		info, err := store.Info(name)
		if err != nil {
			log.Fatal(err)
		}
		pl, err := store.Select(name, info.Versions[len(info.Versions)-1].ID)
		if err != nil {
			log.Fatal(err)
		}
		tp, fp := score(pl.Dense, stars, hotPixels)
		ref := info.BranchedFrom
		fmt.Printf("%-20s branched from %s@%d: %d/%d stars found, %d false positive(s)\n",
			name, ref.Array, ref.Version, tp, len(stars), fp)
	}

	// 4. Merge the winning pipeline's detections with the raw data into
	// one lineage so downstream users see both as a sequence.
	err = store.Merge("Field7_Published", []arrayvers.VersionRef{
		{Array: "SurveyField7", Version: 1},
		{Array: "Cooked_Neighborhood", Version: 2},
	})
	if err != nil {
		log.Fatal(err)
	}
	published, _ := store.Info("Field7_Published")
	fmt.Printf("published lineage has %d versions (raw + cooked); arrays in store: %v\n",
		published.NumVersions, store.ListArrays())
}

// makeSkyFrame renders stars (3x3 PSF blobs) and single hot pixels on a
// noisy dark background.
func makeSkyFrame(nStars int) (img *arrayvers.Dense, stars, hot [][2]int64) {
	rng := rand.New(rand.NewSource(11))
	img, err := arrayvers.NewDense(arrayvers.UInt16, []int64{side, side})
	if err != nil {
		log.Fatal(err)
	}
	for i := int64(0); i < img.NumCells(); i++ {
		img.SetBits(i, int64(rng.Intn(200))) // read noise
	}
	for s := 0; s < nStars; s++ {
		y := 5 + rng.Int63n(side-10)
		x := 5 + rng.Int63n(side-10)
		stars = append(stars, [2]int64{y, x})
		for dy := int64(-1); dy <= 1; dy++ {
			for dx := int64(-1); dx <= 1; dx++ {
				v := int64(900)
				if dy == 0 && dx == 0 {
					v = 4000
				}
				img.SetBitsAt([]int64{y + dy, x + dx}, v+int64(rng.Intn(100)))
			}
		}
	}
	for h := 0; h < 2; h++ {
		y := 5 + rng.Int63n(side-10)
		x := 5 + rng.Int63n(side-10)
		hot = append(hot, [2]int64{y, x})
		img.SetBitsAt([]int64{y, x}, 5000) // bright lone pixel
	}
	return img, stars, hot
}

func cook(raw *arrayvers.Dense, classify func(*arrayvers.Dense, int64, int64) int64) *arrayvers.Dense {
	out, err := arrayvers.NewDense(arrayvers.UInt16, raw.Shape())
	if err != nil {
		log.Fatal(err)
	}
	for y := int64(0); y < side; y++ {
		for x := int64(0); x < side; x++ {
			out.SetBitsAt([]int64{y, x}, classify(raw, y, x))
		}
	}
	return out
}

func score(detection *arrayvers.Dense, stars, hot [][2]int64) (truePos, falsePos int) {
	for _, s := range stars {
		if detection.BitsAt([]int64{s[0], s[1]}) != 0 {
			truePos++
		}
	}
	for _, h := range hot {
		if detection.BitsAt([]int64{h[0], h[1]}) != 0 {
			falsePos++
		}
	}
	return truePos, falsePos
}
