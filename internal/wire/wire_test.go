package wire

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"arrayvers/internal/array"
	"arrayvers/internal/core"
)

func testDense(t *testing.T) *array.Dense {
	t.Helper()
	d, err := array.NewDense(array.Int32, []int64{8, 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < d.NumCells(); i++ {
		d.SetBits(i, i*3-17)
	}
	return d
}

func testSparse(t *testing.T) *array.Sparse {
	t.Helper()
	sp, err := array.NewSparse(array.Float64, []int64{100, 100}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 40; i++ {
		sp.SetBits(i*199, i<<20)
	}
	return sp
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello frames")
	if err := WriteFrame(&buf, KindPayload, payload); err != nil {
		t.Fatal(err)
	}
	kind, got, err := ReadFrame(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if kind != KindPayload || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: kind=%d payload=%q", kind, got)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, KindDense, nil); err != nil {
		t.Fatal(err)
	}
	kind, got, err := ReadFrame(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if kind != KindDense || len(got) != 0 {
		t.Fatalf("kind=%d len=%d", kind, len(got))
	}
}

func TestFrameBadMagic(t *testing.T) {
	raw := []byte("XXXX\x01\x00\x00\x00\x00\x00\x00\x00\x00")
	if _, _, err := ReadFrame(bytes.NewReader(raw), 0); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, KindDense, []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// every strict prefix must be rejected as truncated
	for cut := 0; cut < len(full); cut++ {
		_, _, err := ReadFrame(bytes.NewReader(full[:cut]), 0)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("prefix of %d bytes: err = %v, want ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestFrameOversized(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, KindDense, make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadFrame(bytes.NewReader(buf.Bytes()), 1023); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
	// a hostile length prefix must be rejected before allocation
	hostile := []byte{'A', 'V', 'F', '1', 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
	if _, _, err := ReadFrame(bytes.NewReader(hostile), 1<<20); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("hostile length: err = %v, want ErrFrameTooLarge", err)
	}
}

func TestPlaneRoundTripDense(t *testing.T) {
	d := testDense(t)
	var buf bytes.Buffer
	if err := WritePlane(&buf, core.Plane{Dense: d}); err != nil {
		t.Fatal(err)
	}
	pl, err := ReadPlane(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Dense == nil || !pl.Dense.Equal(d) {
		t.Fatal("dense plane round trip mismatch")
	}
}

func TestPlaneRoundTripSparse(t *testing.T) {
	sp := testSparse(t)
	var buf bytes.Buffer
	if err := WritePlane(&buf, core.Plane{Sparse: sp}); err != nil {
		t.Fatal(err)
	}
	pl, err := ReadPlane(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Sparse == nil || !pl.Sparse.Equal(sp) {
		t.Fatal("sparse plane round trip mismatch")
	}
}

func TestPlaneEmptyRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePlane(&buf, core.Plane{}); err == nil {
		t.Fatal("empty plane accepted")
	}
}

func TestDenseRoundTrip(t *testing.T) {
	// a dense plane of every cell type survives the frame unchanged
	for _, dt := range []array.DataType{array.Int8, array.Int16, array.Int32, array.Int64,
		array.UInt8, array.UInt16, array.UInt32, array.Float32, array.Float64} {
		d := array.MustDense(dt, []int64{3, 5})
		for i := int64(0); i < d.NumCells(); i++ {
			d.SetBits(i, i*5-7)
		}
		var buf bytes.Buffer
		if err := WritePlane(&buf, core.Plane{Dense: d}); err != nil {
			t.Fatal(err)
		}
		pl, err := ReadPlane(&buf, 0)
		if err != nil {
			t.Fatalf("%v: %v", dt, err)
		}
		if pl.Dense == nil || pl.Dense.DType() != dt || !pl.Dense.Equal(d) {
			t.Fatalf("%v: dense round trip mismatch", dt)
		}
	}
}

func TestReadPlaneWrongKind(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePayload(&buf, core.DensePayload(testDense(t))); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadPlane(&buf, 0); err == nil {
		t.Fatal("payload frame accepted as a plane")
	}
}

// selectReply builds a select reply: one plane frame per plane, back to
// back, the way the server writes it — a dense plane as the chunks of a
// 3×5 grid, a sparse one whole.
func selectReply(t *testing.T, planes ...core.Plane) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, pl := range planes {
		var err error
		if pl.Dense != nil {
			_, err = WriteChunked(&buf, cut(pl.Dense, array.BoxOf(pl.Dense.Shape()), []int64{3, 5}))
		} else {
			err = WritePlane(&buf, pl)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestReadPlanesRoundTrip(t *testing.T) {
	sp2 := testSparse(t)
	sp2.SetBits(2345, 99)
	want := []core.Plane{{Dense: testDense(t)}, {Sparse: testSparse(t)}, {Sparse: sp2}}
	got, err := ReadPlanes(bytes.NewReader(selectReply(t, want...)), len(want), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || !got[0].Dense.Equal(want[0].Dense) ||
		!got[1].Sparse.Equal(want[1].Sparse) || !got[2].Sparse.Equal(want[2].Sparse) {
		t.Fatal("select reply round trip mismatch")
	}
	// a one-plane reply is a single plane frame
	one := selectReply(t, want[0])
	pl, err := ReadPlane(bytes.NewReader(one), 0)
	if err != nil || !pl.Dense.Equal(want[0].Dense) {
		t.Fatalf("one-plane reply is not a plane frame: %v", err)
	}
}

func TestReadPlanesTruncated(t *testing.T) {
	full := selectReply(t, core.Plane{Dense: testDense(t)}, core.Plane{Sparse: testSparse(t)})
	// fewer frames than promised, or any cut inside the last one
	for _, cut := range []int{len(full) - 3, len(full) / 2, 0} {
		if _, err := ReadPlanes(bytes.NewReader(full[:cut]), 2, 0); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("reply cut to %d/%d bytes: err = %v, want ErrUnexpectedEOF", cut, len(full), err)
		}
	}
	if _, err := ReadPlanes(bytes.NewReader(full), 3, 0); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("two-frame reply read as three: err = %v, want ErrUnexpectedEOF", err)
	}
	// a plane frame over the limit is refused
	if _, err := ReadPlanes(bytes.NewReader(full), 2, 64); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized plane frame: err = %v, want ErrFrameTooLarge", err)
	}
	// so is a byte after the last frame
	if _, err := ReadPlanes(bytes.NewReader(append(full, 0)), 2, 0); err == nil || !strings.Contains(err.Error(), "trailing bytes") {
		t.Fatalf("reply with a trailing byte: err = %v, want trailing bytes", err)
	}
}

func TestPayloadRoundTripPlanes(t *testing.T) {
	p := core.Payload{Planes: []core.Plane{{Dense: testDense(t)}, {Sparse: testSparse(t)}}}
	var buf bytes.Buffer
	if err := WritePayload(&buf, p); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPayload(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Planes) != 2 || got.DeltaBase != 0 {
		t.Fatalf("planes=%d base=%d", len(got.Planes), got.DeltaBase)
	}
	if got.Planes[0].Dense == nil || !got.Planes[0].Dense.Equal(p.Planes[0].Dense) {
		t.Fatal("plane 0 mismatch")
	}
	if got.Planes[1].Sparse == nil || !got.Planes[1].Sparse.Equal(p.Planes[1].Sparse) {
		t.Fatal("plane 1 mismatch")
	}
}

func TestPayloadRoundTripDeltaList(t *testing.T) {
	p := core.DeltaListPayload(7, []core.CellUpdate{
		{Coords: []int64{0, 5}, Bits: -42},
		{Attr: "Temp", Coords: []int64{31, 0}, Bits: 1 << 40},
	})
	var buf bytes.Buffer
	if err := WritePayload(&buf, p); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPayload(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.DeltaBase != 7 || len(got.Updates) != 2 {
		t.Fatalf("base=%d updates=%d", got.DeltaBase, len(got.Updates))
	}
	u := got.Updates[1]
	if u.Attr != "Temp" || u.Coords[0] != 31 || u.Coords[1] != 0 || u.Bits != 1<<40 {
		t.Fatalf("update 1: %+v", u)
	}
	if got.Updates[0].Bits != -42 {
		t.Fatalf("update 0 bits: %d", got.Updates[0].Bits)
	}
}

func TestPayloadEmptyRejected(t *testing.T) {
	if _, err := EncodePayload(core.Payload{}); err == nil {
		t.Fatal("empty payload accepted")
	}
	if _, err := DecodePayload(nil); err == nil {
		t.Fatal("empty blob accepted")
	}
	if _, err := DecodePayload([]byte{99}); err == nil {
		t.Fatal("unknown form accepted")
	}
}

// TestHostileCounts checks a claimed element count far beyond the bytes
// actually present is rejected (or bounded) instead of driving a giant
// pre-allocation.
func TestHostileCounts(t *testing.T) {
	// delta-list payload claiming 2^30 coords with a few bytes of input
	hostile := []byte{payloadFormDeltaList}
	hostile = append(hostile, 7)            // base
	hostile = append(hostile, 1)            // one update
	hostile = append(hostile, 0)            // empty attr
	hostile = appendUvarint(hostile, 1<<30) // ncoords
	hostile = append(hostile, 1, 2, 3)
	if _, err := DecodePayload(hostile); err == nil {
		t.Fatal("hostile coord count accepted")
	}
	// planes payload claiming many planes backed by nothing: per-plane
	// reads fail on the first missing length
	if _, err := DecodePayload(appendUvarint([]byte{payloadFormPlanes}, 1<<20)); err == nil {
		t.Fatal("hostile plane count accepted")
	}
}

func appendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func TestPayloadTruncated(t *testing.T) {
	p := core.Payload{Planes: []core.Plane{{Dense: testDense(t)}}}
	blob, err := EncodePayload(p)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(blob); cut += 7 {
		if _, err := DecodePayload(blob[:cut]); err == nil {
			t.Fatalf("truncated payload of %d/%d bytes accepted", cut, len(blob))
		}
	}
}

// TestPayloadBatchRoundTrip round-trips a write body: two puts, the
// first with three payloads of mixed forms.
func TestPayloadBatchRoundTrip(t *testing.T) {
	puts := []core.MultiInsert{
		{Array: "B", Payloads: []core.Payload{
			core.DensePayload(testDense(t)),
			core.DeltaListPayload(1, []core.CellUpdate{{Coords: []int64{2, 3}, Bits: 99}}),
			core.DensePayload(testDense(t)),
		}},
		{Array: "A", Payloads: []core.Payload{core.DensePayload(testDense(t))}},
	}
	var buf bytes.Buffer
	if err := WriteMultiBatch(&buf, puts); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMultiBatch(bytes.NewReader(buf.Bytes()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Array != "B" || got[1].Array != "A" || len(got[0].Payloads) != 3 || len(got[1].Payloads) != 1 {
		t.Fatalf("decoded part table %+v, want B×3 then A×1", got)
	}
	ps := got[0].Payloads
	if !ps[0].Planes[0].Dense.Equal(puts[0].Payloads[0].Planes[0].Dense) {
		t.Fatal("batch member 0 corrupted")
	}
	if ps[1].DeltaBase != 1 || len(ps[1].Updates) != 1 || ps[1].Updates[0].Bits != 99 {
		t.Fatalf("batch member 1 corrupted: %+v", ps[1])
	}
}

// TestPayloadBatchRejectsEmptyAndTruncated: an empty write, an empty
// put, a repeated array, a body cut mid-frame, a foreign frame kind and
// trailing bytes are all errors, never a silently shorter write.
func TestPayloadBatchRejectsEmptyAndTruncated(t *testing.T) {
	one := []core.Payload{core.DensePayload(testDense(t))}
	if err := WriteMultiBatch(io.Discard, nil); err == nil {
		t.Fatal("empty write encoded")
	}
	if err := WriteMultiBatch(io.Discard, []core.MultiInsert{{Array: "A"}}); err == nil {
		t.Fatal("empty put encoded")
	}
	if _, err := ReadMultiBatch(bytes.NewReader(nil), 0); err == nil {
		t.Fatal("empty body decoded")
	}
	var dup bytes.Buffer
	if err := WriteMultiBatch(&dup, []core.MultiInsert{{Array: "A", Payloads: one}, {Array: "A", Payloads: one}}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMultiBatch(bytes.NewReader(dup.Bytes()), 0); err == nil {
		t.Fatal("write naming one array twice decoded cleanly")
	}
	var buf bytes.Buffer
	if err := WriteMultiBatch(&buf, []core.MultiInsert{{Array: "A", Payloads: append(one, one...)}}); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-7]
	if _, err := ReadMultiBatch(bytes.NewReader(cut), 0); err == nil {
		t.Fatal("truncated write decoded cleanly")
	}
	if _, err := ReadMultiBatch(bytes.NewReader(append(buf.Bytes(), 0)), 0); err == nil {
		t.Fatal("write with trailing bytes decoded cleanly")
	}
	// a foreign frame kind where a payload belongs is rejected
	var mixed bytes.Buffer
	if err := WriteFrame(&mixed, KindMultiHeader, []byte(`[{"name":"A","count":1}]`)); err != nil {
		t.Fatal(err)
	}
	if err := WritePlane(&mixed, core.Plane{Dense: testDense(t)}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMultiBatch(bytes.NewReader(mixed.Bytes()), 0); err == nil {
		t.Fatal("write with a foreign frame kind decoded cleanly")
	}
}

// TestPlaneNoCopy checks what WriteChunked reports as written straight
// from chunk buffers: a plane sent as one tile is all of its bytes, a
// tile that is one span of its chunk counts and a gathered one does not.
func TestPlaneNoCopy(t *testing.T) {
	d := testDense(t)
	var buf bytes.Buffer
	n, err := WriteChunked(&buf, cut(d, array.BoxOf(d.Shape()), d.Shape()))
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(d.Bytes())) {
		t.Fatalf("zero-copy bytes = %d, want %d", n, len(d.Bytes()))
	}
	pl, err := ReadPlane(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Dense == nil || !pl.Dense.Equal(d) {
		t.Fatal("one-tile dense plane round trip mismatch")
	}

	// 8×8 on a 4×8 grid, box rows 1..6 and columns 0..8: both tiles are
	// whole rows of their chunks, so one span each
	box := array.NewBox([]int64{1, 0}, []int64{7, 8})
	buf.Reset()
	if n, err = WriteChunked(&buf, cut(d, box, []int64{4, 8})); err != nil || n != box.NumCells()*4 {
		t.Fatalf("full-width tiles: zero-copy bytes = %d (%v), want %d", n, err, box.NumCells()*4)
	}
	// columns 1..7 cut every row short: every tile is gathered
	box = array.NewBox([]int64{1, 1}, []int64{7, 7})
	buf.Reset()
	if n, err = WriteChunked(&buf, cut(d, box, []int64{4, 8})); err != nil || n != 0 {
		t.Fatalf("cut rows: zero-copy bytes = %d (%v), want 0", n, err)
	}
	want, _ := d.Slice(box)
	if pl, err = ReadPlane(&buf, 0); err != nil || !pl.Dense.Equal(want) {
		t.Fatalf("gathered tiles round trip mismatch: %v", err)
	}

	if _, err := WriteChunked(&buf, core.ChunkedPlane{}); err == nil {
		t.Fatal("empty plane accepted")
	}
	// chunks that do not match the box's tiles are refused before any byte
	buf.Reset()
	bad := cut(d, array.BoxOf(d.Shape()), []int64{4, 4})
	bad.Chunks = bad.Chunks[1:]
	if _, err := WriteChunked(&buf, bad); err == nil || buf.Len() != 0 {
		t.Fatalf("short chunk list: err = %v, %d bytes written", err, buf.Len())
	}
}
