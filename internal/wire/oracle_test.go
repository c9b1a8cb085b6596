package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"arrayvers/internal/array"
	"arrayvers/internal/core"
)

// The assembled references: a payload and a write body built the way the
// codec built them before the segment encoder — each plane marshalled
// into a blob of its own, appended to one growing payload slice, framed
// into one buffer. Kept as the oracle FuzzFrameCodec drives the segment
// encoder against, byte for byte.

// oracleEncodePayload assembles a KindPayload frame body.
func oracleEncodePayload(p core.Payload) []byte {
	var buf []byte
	if p.DeltaBase > 0 {
		buf = append(buf, payloadFormDeltaList)
		buf = binary.AppendUvarint(buf, uint64(p.DeltaBase))
		buf = binary.AppendUvarint(buf, uint64(len(p.Updates)))
		for _, u := range p.Updates {
			buf = binary.AppendUvarint(buf, uint64(len(u.Attr)))
			buf = append(buf, u.Attr...)
			buf = binary.AppendUvarint(buf, uint64(len(u.Coords)))
			for _, c := range u.Coords {
				buf = binary.AppendVarint(buf, c)
			}
			buf = binary.AppendVarint(buf, u.Bits)
		}
		return buf
	}
	buf = append(buf, payloadFormPlanes)
	buf = binary.AppendUvarint(buf, uint64(len(p.Planes)))
	for _, pl := range p.Planes {
		var b []byte
		if pl.Dense != nil {
			b = array.MarshalDense(pl.Dense)
		} else {
			b = array.MarshalSparse(pl.Sparse)
		}
		buf = binary.AppendUvarint(buf, uint64(len(b)))
		buf = append(buf, b...)
	}
	return buf
}

// oracleWriteMultiBatch assembles a write body.
func oracleWriteMultiBatch(batches []core.MultiInsert) []byte {
	parts := make([]MultiPart, len(batches))
	for i, b := range batches {
		parts[i] = MultiPart{Name: b.Array, Count: len(b.Payloads)}
	}
	hdr, _ := json.Marshal(parts)
	var out bytes.Buffer
	_ = WriteFrame(&out, KindMultiHeader, hdr)
	for _, b := range batches {
		for _, p := range b.Payloads {
			_ = WriteFrame(&out, KindPayload, oracleEncodePayload(p))
		}
	}
	return out.Bytes()
}

// oracleReadChunked is the chunked-frame reader before tiles were read
// whole: one read per row run of each tile, straight into the plane.
// Kept as the oracle readChunked is checked against, plane for plane and
// error class for error class.
func oracleReadChunked(r io.Reader, n uint64) (*array.Dense, error) {
	h, err := readChunkedHeader(r, n)
	if err != nil {
		return nil, err
	}
	out, err := array.NewDense(h.dt, h.shape)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	data, elem := out.Bytes(), int64(h.dt.Size())
	cur := make([]int64, len(h.shape))
	err = forTiles(h.box, h.side, func(_ int, _ []int64, tile array.Box) error {
		return runs(h.shape, h.box.Lo, tile, cur, func(at, n int64) error {
			return readFull(r, data[at*elem:(at+n)*elem], "chunked plane tile")
		})
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
