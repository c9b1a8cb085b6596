// Remote: the same program body runs against the embedded store or a
// running avstored daemon — the only line that changes is the one that
// builds the store handle. Start a daemon and point the example at it:
//
//	avstored -store /tmp/remote-store &
//	go run ./examples/remote -addr http://localhost:7421
//
// Without -addr the example opens an embedded store in a temp
// directory, demonstrating that the client package mirrors the
// embedded API method-for-method.
//
// The program exits non-zero if any remote result differs from the
// locally computed expectation, so CI uses it as the avstored smoke
// test.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"arrayvers"
	"arrayvers/client"
)

// versionedStore is the method set this program needs; both
// *arrayvers.Store and *client.Client satisfy it verbatim.
type versionedStore interface {
	CreateArray(arrayvers.Schema) error
	DeleteArray(string) error
	Write(context.Context, []arrayvers.MultiInsert) ([][]int, error)
	Insert(string, arrayvers.Payload) (int, error)
	Read(context.Context, arrayvers.ReadQuery) ([]arrayvers.Plane, error)
	Select(string, int) (arrayvers.Plane, error)
	SelectRegion(string, int, arrayvers.Box) (arrayvers.Plane, error)
	SelectMulti(string, []int) (*arrayvers.Dense, error)
	Info(string) (arrayvers.ArrayInfo, error)
	Branch(string, int, string) error
	Close() error
}

func main() {
	addr := flag.String("addr", "", "avstored base URL (empty: run embedded in a temp dir)")
	flag.Parse()

	var store versionedStore
	if *addr != "" {
		store = client.New(*addr) // the one line that differs
	} else {
		dir, err := os.MkdirTemp("", "arrayvers-remote-*")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(dir)
		embedded, err := arrayvers.Open(dir, arrayvers.DefaultOptions())
		if err != nil {
			log.Fatal(err)
		}
		store = embedded
	}
	defer store.Close()

	const name = "RemoteDemo"
	// make reruns against a long-lived daemon idempotent
	_ = store.DeleteArray(name)
	_ = store.DeleteArray(name + "_branch")

	err := store.CreateArray(arrayvers.Schema{
		Name:  name,
		Dims:  []arrayvers.Dimension{{Name: "Y", Lo: 0, Hi: 31}, {Name: "X", Lo: 0, Hi: 31}},
		Attrs: []arrayvers.Attribute{{Name: "V", Type: arrayvers.Int32}},
	})
	if err != nil {
		log.Fatal(err)
	}

	// commit three versions, keeping local copies as the expectation
	var ids []int
	var want []*arrayvers.Dense
	for v := 0; v < 3; v++ {
		grid, err := arrayvers.NewDense(arrayvers.Int32, []int64{32, 32})
		if err != nil {
			log.Fatal(err)
		}
		for i := int64(0); i < grid.NumCells(); i++ {
			grid.SetBits(i, int64(v)*1000+i)
		}
		want = append(want, grid.Clone())
		id, err := store.Insert(name, arrayvers.DensePayload(grid))
		if err != nil {
			log.Fatal(err)
		}
		ids = append(ids, id)
		fmt.Printf("committed %s@%d\n", name, id)
	}

	// one write of three more versions: one request and one commit
	// (all-or-nothing server-side)
	var batch []arrayvers.Payload
	for v := 3; v < 6; v++ {
		grid, err := arrayvers.NewDense(arrayvers.Int32, []int64{32, 32})
		if err != nil {
			log.Fatal(err)
		}
		for i := int64(0); i < grid.NumCells(); i++ {
			grid.SetBits(i, int64(v)*1000+i)
		}
		want = append(want, grid.Clone())
		batch = append(batch, arrayvers.DensePayload(grid))
	}
	written, err := store.Write(context.Background(), []arrayvers.MultiInsert{{Array: name, Payloads: batch}})
	if err != nil {
		log.Fatal(err)
	}
	batchIDs := written[0]
	if len(batchIDs) != len(batch) {
		log.Fatalf("write returned %d ids for %d payloads", len(batchIDs), len(batch))
	}
	ids = append(ids, batchIDs...)
	fmt.Printf("wrote %s@%v in one commit\n", name, batchIDs)

	// read each version back and compare against the local copy
	for i, id := range ids {
		pl, err := store.Select(name, id)
		if err != nil {
			log.Fatal(err)
		}
		if !pl.Dense.Equal(want[i]) {
			log.Fatalf("%s@%d round-trip mismatch", name, id)
		}
	}
	fmt.Printf("all %d versions round-trip byte-identical\n", len(ids))

	// region select
	box := arrayvers.NewBox([]int64{4, 4}, []int64{12, 12})
	pl, err := store.SelectRegion(name, ids[1], box)
	if err != nil {
		log.Fatal(err)
	}
	wantRegion, err := want[1].Slice(box)
	if err != nil {
		log.Fatal(err)
	}
	if !pl.Dense.Equal(wantRegion) {
		log.Fatal("region select mismatch")
	}
	fmt.Printf("region %v of %s@%d matches\n", box, name, ids[1])

	// multi-version stack
	stack, err := store.SelectMulti(name, ids)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stacked %d versions into shape %v\n", len(ids), stack.Shape())

	// the general read: a region of a named attribute across several
	// versions, one plane per version
	planes, err := store.Read(context.Background(), arrayvers.ReadQuery{
		Array: name, IDs: []int{ids[4], ids[0], ids[2]}, Attr: "V", Box: box,
	})
	if err != nil {
		log.Fatal(err)
	}
	for i, w := range []int{4, 0, 2} {
		wantRegion, err := want[w].Slice(box)
		if err != nil {
			log.Fatal(err)
		}
		if !planes[i].Dense.Equal(wantRegion) {
			log.Fatalf("read of region %v of %s@%d mismatch", box, name, ids[w])
		}
	}
	fmt.Printf("read region %v of attribute V from %d versions\n", box, len(planes))

	// branch and version history
	if err := store.Branch(name, ids[1], name+"_branch"); err != nil {
		log.Fatal(err)
	}
	bpl, err := store.Select(name+"_branch", 1)
	if err != nil {
		log.Fatal(err)
	}
	if !bpl.Dense.Equal(want[1]) {
		log.Fatal("branch content mismatch")
	}
	info, err := store.Info(name)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("branched %s@%d; %s has %d versions\n", name, ids[1], name, info.NumVersions)
	fmt.Println("OK")
}
