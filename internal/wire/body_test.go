package wire

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"arrayvers/internal/array"
	"arrayvers/internal/core"
)

var updateBodies = flag.Bool("update", false, "rewrite testdata/write_bodies.golden from WriteMultiBatch")

// bodyCase is one write body of the byte-identity golden.
type bodyCase struct {
	name string
	puts []core.MultiInsert
}

// bodyCases covers every payload form: a dense plane of every dtype, a
// two-attribute dense payload, sparse planes, delta lists and a write
// of several puts mixing all three.
func bodyCases() []bodyCase {
	fill := func(d *array.Dense, mul int64) *array.Dense {
		for i := int64(0); i < d.NumCells(); i++ {
			d.SetBits(i, (i*mul-37)%113)
		}
		return d
	}
	var cases []bodyCase
	for dt := array.Int8; dt <= array.Float64; dt++ {
		d := fill(array.MustDense(dt, []int64{3, 5}), int64(dt)*7)
		cases = append(cases, bodyCase{"dense-" + dt.String(), []core.MultiInsert{{Array: "D", Payloads: []core.Payload{core.DensePayload(d)}}}})
	}
	two := core.Payload{Planes: []core.Plane{
		{Dense: fill(array.MustDense(array.Int32, []int64{2, 3, 4}), 3)},
		{Dense: fill(array.MustDense(array.Float32, []int64{2, 3, 4}), 5)},
	}}
	cases = append(cases, bodyCase{"dense-two-attrs", []core.MultiInsert{{Array: "D", Payloads: []core.Payload{two}}}})
	sp := array.MustSparse(array.Float64, []int64{40, 40}, -1)
	for i := int64(0); i < 9; i++ {
		sp.SetBits(i*171, i<<30-5)
	}
	empty := array.MustSparse(array.Int16, []int64{7}, 0)
	cases = append(cases, bodyCase{"sparse", []core.MultiInsert{{Array: "S", Payloads: []core.Payload{core.SparsePayload(sp), core.SparsePayload(empty)}}}})
	dl := core.DeltaListPayload(300, []core.CellUpdate{
		{Attr: "A", Coords: []int64{1, 2}, Bits: 42},
		{Coords: []int64{-3, 1 << 40}, Bits: -1},
		{Attr: "long attribute name", Coords: []int64{0}, Bits: 1 << 62},
	})
	cases = append(cases, bodyCase{"delta-list", []core.MultiInsert{{Array: "L", Payloads: []core.Payload{dl, core.DeltaListPayload(1, nil)}}}})
	cases = append(cases, bodyCase{"multi-array", []core.MultiInsert{
		{Array: "Second", Payloads: []core.Payload{
			core.DensePayload(fill(array.MustDense(array.Int64, []int64{4, 4}), 11)),
			dl,
			core.SparsePayload(sp),
		}},
		{Array: "First \"quoted\"", Payloads: []core.Payload{two}},
		{Array: "Third", Payloads: []core.Payload{core.DensePayload(fill(array.MustDense(array.UInt8, []int64{200}), 13))}},
	}})
	return cases
}

const bodiesGolden = "testdata/write_bodies.golden"

// readBodiesGolden reads the golden: one "name hex" line per case.
func readBodiesGolden(t *testing.T) map[string][]byte {
	t.Helper()
	f, err := os.Open(bodiesGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string][]byte{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		name, hx, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		b, err := hex.DecodeString(hx)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = b
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestWriteBodyGolden pins the bytes of a write body: for every case,
// EncodeWrite's segments, a read of its Reader (twice, as a retried
// request replays it) and WriteMultiBatch all give exactly the body
// recorded in testdata/write_bodies.golden (-update rewrites it from
// WriteMultiBatch; only a change meant to move the wire format may), and
// every dense plane's cells are a segment that aliases the plane.
func TestWriteBodyGolden(t *testing.T) {
	cases := bodyCases()
	if *updateBodies {
		var out bytes.Buffer
		for _, c := range cases {
			var buf bytes.Buffer
			if err := WriteMultiBatch(&buf, c.puts); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&out, "%s %x\n", c.name, buf.Bytes())
		}
		if err := os.WriteFile(filepath.FromSlash(bodiesGolden), out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden := readBodiesGolden(t)
	if len(golden) != len(cases) {
		t.Fatalf("golden holds %d bodies, want %d", len(golden), len(cases))
	}
	for _, c := range cases {
		want := golden[c.name]
		var buf bytes.Buffer
		if err := WriteMultiBatch(&buf, c.puts); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s: WriteMultiBatch wrote %d bytes that differ from the golden's %d", c.name, buf.Len(), len(want))
		}
		body, err := EncodeWrite(c.puts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := bytes.Join(body.Segs, nil); body.Len != int64(len(want)) || !bytes.Equal(got, want) {
			t.Errorf("%s: segments join to %d bytes (Len %d) that differ from the golden's %d", c.name, len(got), body.Len, len(want))
		}
		for i := range 2 {
			if got, err := io.ReadAll(body.Reader()); err != nil || !bytes.Equal(got, want) {
				t.Errorf("%s: read %d gave %d bytes (%v) that differ from the golden's %d", c.name, i, len(got), err, len(want))
			}
		}
		for _, put := range c.puts {
			for _, p := range put.Payloads {
				for _, pl := range p.Planes {
					if pl.Dense != nil && !aliased(body.Segs, pl.Dense.Bytes()) {
						t.Errorf("%s: a %v plane's cells are not a segment of the body", c.name, pl.Dense.DType())
					}
				}
			}
		}
	}
}

// aliased reports whether cells is one of segs, the same memory.
func aliased(segs [][]byte, cells []byte) bool {
	for _, s := range segs {
		if len(s) == len(cells) && &s[0] == &cells[0] {
			return true
		}
	}
	return false
}

// TestWriteBodyAllocs is the write body's allocation gate: building the
// body of one 512×512 int32 dense write and writing it to io.Discard
// allocates less than 64 KiB — the 1 MiB plane goes out from the
// caller's buffer, never marshalled, appended or framed into a copy.
func TestWriteBodyAllocs(t *testing.T) {
	const side, reps = 512, 16
	d := array.MustDense(array.Int32, []int64{side, side})
	for i := int64(0); i < d.NumCells(); i++ {
		d.SetBits(i, i*2654435761)
	}
	puts := []core.MultiInsert{{Array: "W", Payloads: []core.Payload{core.DensePayload(d)}}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range reps {
		body, err := EncodeWrite(puts)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := body.WriteTo(io.Discard); err != nil || n != body.Len || n <= d.SizeBytes() {
			t.Fatalf("wrote %d of %d bytes (%v), want more than the plane's %d", n, body.Len, err, d.SizeBytes())
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / reps; per >= 64<<10 {
		t.Errorf("a 512×512 int32 write body allocates %d bytes, want < 64 KiB", per)
	}
}
