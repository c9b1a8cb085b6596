package wire

import (
	"bytes"
	"io"
	"math/rand"
	"testing"

	"arrayvers/internal/array"
	"arrayvers/internal/core"
)

// FuzzFrameCodec drives every wire decoder that faces network bytes
// with arbitrary input: the frame reader, the insert-payload decoder,
// and the plane readers (one plane, and a two-plane select reply). None
// may panic or allocate beyond the size limit regardless of input;
// whatever decodes successfully must re-encode cleanly (the codec is
// total on its own output), and every payload and write body it decodes
// re-encodes through the segment encoder to exactly the bytes of the
// assembled oracle (oracle_test.go). Every KindChunked frame is also read
// by the per-run oracle reader and by readChunked at every tile limit
// (tileLimits): each must fail with the oracle's error class or return
// its plane. The seeds hold a frame of every kind, chunked planes cut on
// grids that clip their edge chunks (2-D and 3-D, one with a tile over
// the small limits' buffers), and the hostile chunked headers of
// TestChunkedHostileHeaders.
func FuzzFrameCodec(f *testing.F) {
	// seed corpus: one valid frame of every kind plus both payload forms
	dense := array.MustDense(array.Int32, []int64{4, 4})
	for i := int64(0); i < dense.NumCells(); i++ {
		dense.SetBits(i, i*7)
	}
	sparse := array.MustSparse(array.Float64, []int64{32, 32}, 0)
	sparse.SetBits(17, 99)
	sparse.SetBits(900, -3)

	var buf bytes.Buffer
	_ = WritePlane(&buf, core.Plane{Dense: dense})
	f.Add(bytes.Clone(buf.Bytes()))
	buf.Reset()
	_ = WritePlane(&buf, core.Plane{Sparse: sparse})
	f.Add(bytes.Clone(buf.Bytes()))
	buf.Reset()
	// a two-plane select reply: one dense frame, one sparse frame
	_ = WritePlane(&buf, core.Plane{Dense: dense})
	_ = WritePlane(&buf, core.Plane{Sparse: sparse})
	f.Add(bytes.Clone(buf.Bytes()))
	buf.Reset()
	// a select reply as the server writes it: a chunked dense plane of a
	// 3×3 grid (edge chunks clipped), then a sparse frame
	_, _ = WriteChunked(&buf, cut(dense, array.NewBox([]int64{1, 0}, []int64{4, 4}), []int64{3, 3}))
	f.Add(bytes.Clone(buf.Bytes()))
	_ = WritePlane(&buf, core.Plane{Sparse: sparse})
	f.Add(bytes.Clone(buf.Bytes()))
	buf.Reset()
	// ragged multi-tile frames: a 3-D box off a 4×3×5 grid, and a 2-D
	// plane whose 32×64 int32 tiles (8 KiB) exceed the 4 KiB limit
	rng := rand.New(rand.NewSource(54))
	_, _ = WriteChunked(&buf, cut(randPlane(rng, array.Int16, []int64{9, 10, 11}), array.NewBox([]int64{1, 2, 3}, []int64{9, 9, 10}), []int64{4, 3, 5}))
	f.Add(bytes.Clone(buf.Bytes()))
	buf.Reset()
	_, _ = WriteChunked(&buf, cut(randPlane(rng, array.Int32, []int64{40, 100}), array.BoxOf([]int64{40, 100}), []int64{32, 64}))
	f.Add(bytes.Clone(buf.Bytes()))
	buf.Reset()
	for _, h := range hostileChunked() {
		f.Add(h.frame)
	}
	_ = WritePayload(&buf, core.DensePayload(dense))
	f.Add(bytes.Clone(buf.Bytes()))
	buf.Reset()
	_ = WritePayload(&buf, core.DeltaListPayload(2, []core.CellUpdate{
		{Attr: "A", Coords: []int64{1, 2}, Bits: 42},
		{Coords: []int64{3, 3}, Bits: -1},
	}))
	f.Add(bytes.Clone(buf.Bytes()))
	buf.Reset()
	_ = WriteMultiBatch(&buf, []core.MultiInsert{
		{Array: "A", Payloads: []core.Payload{core.DensePayload(dense), core.SparsePayload(sparse)}},
		{Array: "B", Payloads: []core.Payload{core.DeltaListPayload(1, []core.CellUpdate{{Coords: []int64{0, 1}, Bits: 7}})}},
	})
	f.Add(bytes.Clone(buf.Bytes()))
	// hostile shapes: truncated header, bad magic, oversized length
	f.Add([]byte("AVF1"))
	f.Add([]byte("XXXX\x01\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Add([]byte("AVF1\x01\xff\xff\xff\xff\xff\xff\xff\xff"))

	const max = 1 << 20
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > max {
			return
		}
		if kind, payload, err := ReadFrame(bytes.NewReader(data), max); err == nil {
			var out bytes.Buffer
			if err := WriteFrame(&out, kind, payload); err != nil {
				t.Fatalf("re-encode of decoded frame failed: %v", err)
			}
		}
		if p, err := DecodePayload(data); err == nil {
			blob, err := EncodePayload(p)
			if err != nil {
				t.Fatalf("re-encode of decoded payload failed: %v", err)
			}
			if want := oracleEncodePayload(p); !bytes.Equal(blob, want) {
				t.Fatalf("payload re-encodes to %d bytes that differ from the oracle's %d", len(blob), len(want))
			}
		}
		if puts, err := ReadMultiBatch(bytes.NewReader(data), max); err == nil {
			body, err := EncodeWrite(puts)
			if err != nil {
				t.Fatalf("re-encode of decoded write body failed: %v", err)
			}
			if got, want := bytes.Join(body.Segs, nil), oracleWriteMultiBatch(puts); int64(len(got)) != body.Len || !bytes.Equal(got, want) {
				t.Fatalf("write body re-encodes to %d bytes (Len %d) that differ from the oracle's %d", len(got), body.Len, len(want))
			}
		}
		if pl, err := ReadPlane(bytes.NewReader(data), max); err == nil && pl.Dense != nil {
			shape := pl.Dense.Shape()
			one := core.ChunkedPlane{Box: array.BoxOf(shape), Stride: shape, Chunks: []*array.Dense{pl.Dense}}
			if _, err := WriteChunked(io.Discard, one); err != nil {
				t.Fatalf("re-encode of decoded dense plane failed: %v", err)
			}
		}
		if kind, n, err := readHeader(bytes.NewReader(data), max); err == nil && kind == KindChunked {
			payload := data[headerLen:]
			want, werr := oracleReadChunked(bytes.NewReader(payload), n)
			for _, limit := range tileLimits {
				got, err := readChunked(bytes.NewReader(payload), n, limit)
				if errClass(err) != errClass(werr) {
					t.Fatalf("limit %d: err = %v, oracle's = %v", limit, err, werr)
				}
				if err == nil && !got.Equal(want) {
					t.Fatalf("limit %d: the plane differs from the oracle's", limit)
				}
			}
		}
		_, _ = ReadPlanes(bytes.NewReader(data), 2, max)
		_, _ = ReadPayload(bytes.NewReader(data), max)
	})
}
