package core

import (
	"math/rand"
	"testing"

	"arrayvers/internal/array"
	"arrayvers/internal/fsio"
)

// Model-based randomized test: a long random sequence of store
// operations (insert, delta-list update, version delete, reorganize,
// compact, crash+reopen) is mirrored against a trivial in-memory model;
// after every step, every live version must still read back exactly.
// The crash+reopen step attempts an insert through a fault-injecting
// filesystem that dies at a random write/sync/rename step, then reopens
// with recovery on — so the randomized walk also exercises the
// recovery path against arbitrary store states.

type modelVersion struct {
	id      int
	content *array.Dense
}

func TestModelBasedRandomOps(t *testing.T) {
	const (
		side  = 24
		steps = 120
	)
	for seed := int64(0); seed < 3; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			opts := smallOpts()
			s, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.CreateArray(schema2D("Model", side)); err != nil {
				t.Fatal(err)
			}
			var model []modelVersion

			randomContent := func() *array.Dense {
				d := array.MustDense(array.Int32, []int64{side, side})
				for i := int64(0); i < d.NumCells(); i++ {
					d.SetBits(i, int64(rng.Intn(2000)))
				}
				return d
			}
			checkAll := func(step int) {
				infos, err := versionsOf(s, "Model")
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if len(infos) != len(model) {
					t.Fatalf("step %d: store has %d versions, model has %d", step, len(infos), len(model))
				}
				for _, mv := range model {
					got, err := s.Select("Model", mv.id)
					if err != nil {
						t.Fatalf("step %d: version %d unreadable: %v", step, mv.id, err)
					}
					if !got.Dense.Equal(mv.content) {
						t.Fatalf("step %d: version %d corrupted", step, mv.id)
					}
				}
			}

			for step := 0; step < steps; step++ {
				switch op := rng.Intn(10); {
				case op < 4: // insert a fresh or perturbed version
					var content *array.Dense
					if len(model) > 0 && rng.Intn(2) == 0 {
						content = model[rng.Intn(len(model))].content.Clone()
						for k := 0; k < 20; k++ {
							content.SetBits(rng.Int63n(content.NumCells()), int64(rng.Intn(2000)))
						}
					} else {
						content = randomContent()
					}
					id, err := s.Insert("Model", DensePayload(content))
					if err != nil {
						t.Fatalf("step %d insert: %v", step, err)
					}
					model = append(model, modelVersion{id, content})
				case op < 6 && len(model) > 0: // delta-list update
					base := model[rng.Intn(len(model))]
					var updates []CellUpdate
					want := base.content.Clone()
					for k := 0; k < 5; k++ {
						coords := []int64{rng.Int63n(side), rng.Int63n(side)}
						bits := int64(rng.Intn(5000))
						updates = append(updates, CellUpdate{Coords: coords, Bits: bits})
						want.SetBitsAt(coords, bits)
					}
					id, err := s.Insert("Model", DeltaListPayload(base.id, updates))
					if err != nil {
						t.Fatalf("step %d delta-list: %v", step, err)
					}
					model = append(model, modelVersion{id, want})
				case op == 6 && len(model) > 1: // delete a random version
					k := rng.Intn(len(model))
					if err := s.DeleteVersion("Model", model[k].id); err != nil {
						t.Fatalf("step %d delete: %v", step, err)
					}
					model = append(model[:k], model[k+1:]...)
				case op == 7 && len(model) > 0: // reorganize
					policies := []LayoutPolicy{PolicyOptimal, PolicyAlgorithm2, PolicyLinearChain, PolicyHeadBiased}
					p := policies[rng.Intn(len(policies))]
					if err := s.Reorganize("Model", ReorganizeOptions{Policy: p, MatrixSample: 512}); err != nil {
						t.Fatalf("step %d reorganize(%v): %v", step, p, err)
					}
				case op == 8 && len(model) > 0: // compact
					if err := s.Compact("Model"); err != nil {
						t.Fatalf("step %d compact: %v", step, err)
					}
				case op == 9: // crash mid-insert, then reopen with recovery
					fault := fsio.NewFault(int64(1 + rng.Intn(50)))
					fopts := opts
					fopts.FS = fault
					fopts.Durability = true
					intended := randomContent()
					inserted, insertedID := false, 0
					if fs, err := Open(dir, fopts); err == nil {
						if id, err := fs.Insert("Model", DensePayload(intended)); err == nil {
							inserted, insertedID = true, id
						}
					}
					ropts := opts
					ropts.Durability = true
					s2, err := Open(dir, ropts)
					if err != nil {
						t.Fatalf("step %d reopen after crash: %v", step, err)
					}
					s = s2
					if dropped := s.Recovery().DroppedVersions; dropped != 0 {
						t.Fatalf("step %d: recovery dropped %d committed versions", step, dropped)
					}
					if inserted {
						model = append(model, modelVersion{insertedID, intended})
						break
					}
					// the interrupted insert is atomically in or out: any id
					// the store has beyond the model must be it, with exactly
					// the intended content
					infos, err := versionsOf(s, "Model")
					if err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					known := map[int]bool{}
					for _, mv := range model {
						known[mv.id] = true
					}
					for _, vi := range infos {
						if known[vi.ID] {
							continue
						}
						got, err := s.Select("Model", vi.ID)
						if err != nil {
							t.Fatalf("step %d: maybe-committed version %d unreadable: %v", step, vi.ID, err)
						}
						if !got.Dense.Equal(intended) {
							t.Fatalf("step %d: maybe-committed version %d has foreign content", step, vi.ID)
						}
						model = append(model, modelVersion{vi.ID, intended})
					}
				}
				if step%10 == 9 {
					checkAll(step)
				}
			}
			checkAll(steps)
			// final integrity check
			rep, err := s.Verify("Model")
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Ok() {
				t.Fatalf("final verify: %v", rep.Problems)
			}
		})
	}
}
