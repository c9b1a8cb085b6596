package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"

	"arrayvers/internal/array"
	"arrayvers/internal/core"
)

// Body is encoded frames as segments: their bytes are the concatenation
// of Segs, Len bytes in all. The small parts — frame headers, the JSON
// part table, varint prefixes, dense blob headers, delta lists — share
// one buffer of the Body's own, and a sparse plane is one marshalled
// blob; each dense plane's cells are a segment that aliases the caller's
// Dense.Bytes(), never a copy. So a dense plane must not change until
// the last write of its Body returns, which is Store.Write's contract
// for a payload already.
type Body struct {
	Segs [][]byte
	Len  int64
}

// WriteTo writes the body's bytes to w, segment by segment.
func (b Body) WriteTo(w io.Writer) (int64, error) {
	var n int64
	for _, s := range b.Segs {
		m, err := w.Write(s)
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// Reader returns a reader of the body's bytes from the first; each call
// starts afresh, so a request can replay its body on every attempt.
func (b Body) Reader() io.Reader {
	bufs := net.Buffers(slices.Clone(b.Segs))
	return &bufs
}

// EncodeWrite encodes a write request body: one KindMultiHeader frame
// holding the JSON part table, then each part's payloads as back-to-back
// KindPayload frames, in part order. The server commits the whole body
// under one manifest commit point (Store.Write).
func EncodeWrite(batches []core.MultiInsert) (Body, error) {
	if len(batches) == 0 {
		return Body{}, errors.New("wire: empty multi batch")
	}
	parts := make([]MultiPart, len(batches))
	for i, b := range batches {
		if len(b.Payloads) == 0 {
			return Body{}, fmt.Errorf("wire: multi batch part %q has no payloads", b.Array)
		}
		parts[i] = MultiPart{Name: b.Array, Count: len(b.Payloads)}
	}
	hdr, err := json.Marshal(parts)
	if err != nil {
		return Body{}, err
	}
	var e encoder
	at := e.open(KindMultiHeader)
	e.buf = append(e.buf, hdr...)
	e.close(at)
	for _, b := range batches {
		for _, p := range b.Payloads {
			at := e.open(KindPayload)
			if err := e.payload(p); err != nil {
				return Body{}, err
			}
			e.close(at)
		}
	}
	return e.body(), nil
}

// encoder builds a Body. Small bytes go to buf; a segment is either an
// aliased slice or a span of buf, cut from buf only in body(), once buf
// has stopped growing, so a frame header can be filled in after its
// payload.
type encoder struct {
	buf  []byte
	segs []segment
	mark int   // buf[mark:] is in no segment yet
	n    int64 // aliased bytes so far
}

// segment is alias when it is not nil, else buf[lo:hi].
type segment struct {
	alias  []byte
	lo, hi int
}

// len is the body's length so far.
func (e *encoder) len() int64 { return e.n + int64(len(e.buf)) }

// alias appends b as a segment of its own, after the small bytes before it.
func (e *encoder) alias(b []byte) {
	if len(b) == 0 {
		return
	}
	e.cut()
	e.segs = append(e.segs, segment{alias: b})
	e.n += int64(len(b))
}

// cut closes the small bytes since the last segment into one.
func (e *encoder) cut() {
	if e.mark < len(e.buf) {
		e.segs = append(e.segs, segment{lo: e.mark, hi: len(e.buf)})
		e.mark = len(e.buf)
	}
}

func (e *encoder) body() Body {
	e.cut()
	segs := make([][]byte, len(e.segs))
	for i, s := range e.segs {
		if s.alias != nil {
			segs[i] = s.alias
		} else {
			segs[i] = e.buf[s.lo:s.hi:s.hi]
		}
	}
	return Body{Segs: segs, Len: e.len()}
}

// write writes the encoded bytes to w.
func (e *encoder) write(w io.Writer) error {
	if _, err := e.body().WriteTo(w); err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
	}
	return nil
}

// frameAt locates an open frame: its header's offset in buf and the
// body length at its payload's first byte.
type frameAt struct {
	hdr   int
	start int64
}

// open begins a frame of kind: its header, with a length close fills in.
func (e *encoder) open(kind Kind) frameAt {
	at := frameAt{hdr: len(e.buf)}
	e.buf = append(e.buf, magic[:]...)
	e.buf = append(e.buf, byte(kind))
	e.buf = binary.LittleEndian.AppendUint64(e.buf, 0)
	at.start = e.len()
	return at
}

// close ends the frame at: its length is everything encoded since open.
func (e *encoder) close(at frameAt) {
	binary.LittleEndian.PutUint64(e.buf[at.hdr+5:], uint64(e.len()-at.start))
}

// payload encodes an insert payload as a KindPayload frame body. Layout:
// one form byte, then either
//
//	planes form:     uvarint count, per plane uvarint len + array.Marshal blob
//	delta-list form: uvarint base, uvarint count, per update
//	                 uvarint len + attr bytes, uvarint ncoords,
//	                 varint coords..., varint bits
func (e *encoder) payload(p core.Payload) error {
	if p.DeltaBase > 0 {
		e.buf = append(e.buf, payloadFormDeltaList)
		e.buf = binary.AppendUvarint(e.buf, uint64(p.DeltaBase))
		e.buf = binary.AppendUvarint(e.buf, uint64(len(p.Updates)))
		for _, u := range p.Updates {
			e.buf = binary.AppendUvarint(e.buf, uint64(len(u.Attr)))
			e.buf = append(e.buf, u.Attr...)
			e.buf = binary.AppendUvarint(e.buf, uint64(len(u.Coords)))
			for _, c := range u.Coords {
				e.buf = binary.AppendVarint(e.buf, c)
			}
			e.buf = binary.AppendVarint(e.buf, u.Bits)
		}
		return nil
	}
	if len(p.Planes) == 0 {
		return errors.New("wire: payload has no planes and no delta base")
	}
	e.buf = append(e.buf, payloadFormPlanes)
	e.buf = binary.AppendUvarint(e.buf, uint64(len(p.Planes)))
	for i, pl := range p.Planes {
		if !e.plane(pl, true) {
			return fmt.Errorf("wire: payload plane %d is empty", i)
		}
	}
	return nil
}

// plane encodes pl's array.Marshal blob, after its uvarint length when
// prefixed. A dense blob is its header, then the plane's own cells. It
// is false, and encodes nothing, when pl is empty.
func (e *encoder) plane(pl core.Plane, prefixed bool) bool {
	switch {
	case pl.Dense != nil:
		var scratch [32]byte
		hdr := array.AppendDenseHeader(scratch[:0], pl.Dense)
		cells := pl.Dense.Bytes()
		if prefixed {
			e.buf = binary.AppendUvarint(e.buf, uint64(len(hdr)+len(cells)))
		}
		e.buf = append(e.buf, hdr...)
		e.alias(cells)
	case pl.Sparse != nil:
		blob := array.MarshalSparse(pl.Sparse)
		if prefixed {
			e.buf = binary.AppendUvarint(e.buf, uint64(len(blob)))
		}
		e.alias(blob)
	default:
		return false
	}
	return true
}
