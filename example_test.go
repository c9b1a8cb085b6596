package arrayvers_test

import (
	"fmt"
	"log"
	"os"

	"arrayvers"
)

// Example demonstrates the core no-overwrite workflow: commit versions,
// read one back, and inspect how each version is encoded.
func Example() {
	dir, _ := os.MkdirTemp("", "arrayvers-example-*")
	defer os.RemoveAll(dir)
	store, err := arrayvers.Open(dir, arrayvers.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	_ = store.CreateArray(arrayvers.Schema{
		Name:  "Example",
		Dims:  []arrayvers.Dimension{{Name: "I", Lo: 0, Hi: 2}, {Name: "J", Lo: 0, Hi: 2}},
		Attrs: []arrayvers.Attribute{{Name: "A", Type: arrayvers.Int32}},
	})
	for mult := int64(1); mult <= 3; mult++ {
		g, _ := arrayvers.NewDense(arrayvers.Int32, []int64{3, 3})
		for i := int64(0); i < 9; i++ {
			g.SetBits(i, (i+1)*mult)
		}
		if _, err := store.Insert("Example", arrayvers.DensePayload(g)); err != nil {
			log.Fatal(err)
		}
	}
	pl, _ := store.Select("Example", 3)
	fmt.Println("Example@3 first row:", pl.Dense.Bits(0), pl.Dense.Bits(1), pl.Dense.Bits(2))
	info, _ := store.Info("Example")
	fmt.Println("versions:", len(info.Versions))
	// Output:
	// Example@3 first row: 3 6 9
	// versions: 3
}

// ExampleStore_SelectMulti shows the paper's N+1-dimensional version
// stacking: selecting several versions of a 2D array yields a 3D array.
func ExampleStore_SelectMulti() {
	dir, _ := os.MkdirTemp("", "arrayvers-stack-*")
	defer os.RemoveAll(dir)
	store, _ := arrayvers.Open(dir, arrayvers.DefaultOptions())
	_ = store.CreateArray(arrayvers.Schema{
		Name:  "A",
		Dims:  []arrayvers.Dimension{{Name: "I", Lo: 0, Hi: 1}, {Name: "J", Lo: 0, Hi: 1}},
		Attrs: []arrayvers.Attribute{{Name: "V", Type: arrayvers.Int32}},
	})
	for v := int64(1); v <= 2; v++ {
		g, _ := arrayvers.NewDense(arrayvers.Int32, []int64{2, 2})
		g.Fill(v)
		store.Insert("A", arrayvers.DensePayload(g))
	}
	stack, _ := store.SelectMulti("A", []int{1, 2})
	fmt.Println("shape:", stack.Shape())
	fmt.Println("slab 0:", stack.BitsAt([]int64{0, 0, 0}), "slab 1:", stack.BitsAt([]int64{1, 0, 0}))
	// Output:
	// shape: [2 2 2]
	// slab 0: 1 slab 1: 2
}

// ExampleEngine shows the AQL surface from the paper's Appendix A.
func ExampleEngine() {
	dir, _ := os.MkdirTemp("", "arrayvers-aql-*")
	defer os.RemoveAll(dir)
	store, _ := arrayvers.Open(dir, arrayvers.DefaultOptions())
	engine := arrayvers.NewEngine(store)
	engine.Execute("CREATE UPDATABLE ARRAY Example ( A::INTEGER ) [ I=0:2, J=0:2 ];")
	res, _ := engine.Execute("VERSIONS(Example);")
	fmt.Println(res.String())
	// Output:
	// []
}

// ExampleStore_Branch shows version trees: a branch copies one version
// of an array into a new named array that evolves independently.
func ExampleStore_Branch() {
	dir, _ := os.MkdirTemp("", "arrayvers-branch-*")
	defer os.RemoveAll(dir)
	store, _ := arrayvers.Open(dir, arrayvers.DefaultOptions())
	_ = store.CreateArray(arrayvers.Schema{
		Name:  "Raw",
		Dims:  []arrayvers.Dimension{{Name: "I", Lo: 0, Hi: 3}},
		Attrs: []arrayvers.Attribute{{Name: "V", Type: arrayvers.Int32}},
	})
	g, _ := arrayvers.NewDense(arrayvers.Int32, []int64{4})
	g.Fill(7)
	store.Insert("Raw", arrayvers.DensePayload(g))
	store.Branch("Raw", 1, "Experiment")
	info, _ := store.Info("Experiment")
	fmt.Printf("Experiment branched from %s@%d\n", info.BranchedFrom.Array, info.BranchedFrom.Version)
	// Output:
	// Experiment branched from Raw@1
}
