// Package wire is the binary frame codec of the avstored service layer
// (see DESIGN.md "Service layer"). Control messages travel as JSON over
// HTTP; array payloads — dense and sparse planes (a select reply is one
// plane frame per version, back to back) and insert payloads — travel
// as length-prefixed binary frames built on the internal/array blob
// format, so dense data never round-trips through base64 or JSON number
// arrays. A dense select reply is a KindChunked frame: the plane's cells
// as the store's chunks hold them (chunked.go).
//
// Frame layout (little-endian):
//
//	offset 0: 4-byte magic "AVF1"
//	offset 4: 1-byte frame kind
//	offset 5: 8-byte payload length
//	offset 13: payload bytes
//
// Readers enforce a maximum payload length so a corrupt or hostile
// length prefix cannot drive an unbounded allocation, and reject
// truncated headers and payloads.
package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"arrayvers/internal/array"
	"arrayvers/internal/core"
)

// Kind discriminates frame payloads.
type Kind uint8

// Frame kinds.
const (
	// KindDense carries one array.MarshalDense blob.
	KindDense Kind = 1
	// KindSparse carries one array.MarshalSparse blob.
	KindSparse Kind = 2
	// KindPayload carries an insert payload in any of the three forms
	// (see EncodePayload).
	KindPayload Kind = 3
	// KindMultiHeader carries the JSON part table of a multi-array
	// atomic batch (see WriteMultiBatch). Kind 4 stays unassigned, so a
	// peer still sending the old sparse-set frame fails as a foreign kind.
	KindMultiHeader Kind = 5
	// KindChunked carries one dense plane as the tiles the chunk grid
	// cuts from its box (see WriteChunked).
	KindChunked Kind = 6
)

// DefaultMaxFrameBytes bounds frame payloads when the caller passes a
// non-positive limit to the read functions.
const DefaultMaxFrameBytes = 1 << 30

var magic = [4]byte{'A', 'V', 'F', '1'}

// headerLen is the fixed frame header size: magic + kind + length.
const headerLen = 13

// Sentinel errors, matchable with errors.Is.
var (
	ErrBadMagic      = errors.New("wire: bad frame magic")
	ErrFrameTooLarge = errors.New("wire: frame payload exceeds size limit")
	// ErrUnexpectedKind is returned (wrapped) by a reader handed a frame
	// of a kind it does not take where it is.
	ErrUnexpectedKind = errors.New("wire: unexpected frame kind")
)

// WriteFrame writes one frame.
func WriteFrame(w io.Writer, kind Kind, payload []byte) error {
	var hdr [headerLen]byte
	copy(hdr[:4], magic[:])
	hdr[4] = byte(kind)
	binary.LittleEndian.PutUint64(hdr[5:], uint64(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("wire: write frame header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("wire: write frame payload: %w", err)
	}
	return nil
}

// ReadFrame reads one frame, rejecting bad magic, truncated input, and
// payloads larger than max (DefaultMaxFrameBytes when max <= 0).
func ReadFrame(r io.Reader, max int64) (Kind, []byte, error) {
	kind, n, err := readHeader(r, max)
	if err != nil {
		return 0, nil, err
	}
	payload := make([]byte, n)
	if err := readFull(r, payload, "frame payload"); err != nil {
		return 0, nil, err
	}
	return kind, payload, nil
}

// readHeader reads one frame header: the kind and a payload length
// already checked against max (DefaultMaxFrameBytes when max <= 0).
func readHeader(r io.Reader, max int64) (Kind, uint64, error) {
	if max <= 0 {
		max = DefaultMaxFrameBytes
	}
	var hdr [headerLen]byte
	if err := readFull(r, hdr[:], "frame header"); err != nil {
		return 0, 0, err
	}
	if !bytes.Equal(hdr[:4], magic[:]) {
		return 0, 0, ErrBadMagic
	}
	n := binary.LittleEndian.Uint64(hdr[5:])
	if n > uint64(max) {
		return 0, 0, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, max)
	}
	return Kind(hdr[4]), n, nil
}

// sliceCap bounds a pre-allocation driven by a decoded element count:
// each element occupies at least minBytes of the remaining encoded
// input, so a hostile count cannot reserve more memory than the bytes
// actually present can back. The count itself is still validated by the
// callers' per-element reads.
func sliceCap(count uint64, remaining, minBytes int) int {
	max := uint64(remaining / minBytes)
	if count < max {
		max = count
	}
	return int(max)
}

// --- planes ---

// WritePlane frames one dense or sparse plane. A dense plane's cells go
// out from its own buffer.
func WritePlane(w io.Writer, pl core.Plane) error {
	kind := KindDense
	if pl.Dense == nil {
		kind = KindSparse
	}
	var e encoder
	at := e.open(kind)
	if !e.plane(pl, false) {
		return errors.New("wire: cannot frame an empty plane")
	}
	e.close(at)
	return e.write(w)
}

// ReadPlane reads a KindDense, KindChunked or KindSparse frame back
// into a plane. A dense plane aliases the frame payload it was read
// into. A chunked one is allocated once from its header, and each of its
// tiles is read with one read: straight into place when the tile is
// contiguous in the plane, else through a reused buffer of at most 1 MiB
// whose runs are copied into place.
func ReadPlane(r io.Reader, max int64) (core.Plane, error) {
	kind, n, err := readHeader(r, max)
	if err != nil {
		return core.Plane{}, err
	}
	if kind == KindChunked {
		d, err := readChunked(r, n, maxTileScratch)
		if err != nil {
			return core.Plane{}, err
		}
		return core.Plane{Dense: d}, nil
	}
	if kind != KindDense && kind != KindSparse {
		return core.Plane{}, fmt.Errorf("%w: expected a plane frame, got kind %d", ErrUnexpectedKind, kind)
	}
	payload := make([]byte, n)
	if err := readFull(r, payload, "frame payload"); err != nil {
		return core.Plane{}, err
	}
	if kind == KindDense {
		d, err := array.UnmarshalDense(payload)
		if err != nil {
			return core.Plane{}, err
		}
		return core.Plane{Dense: d}, nil
	}
	sp, err := array.UnmarshalSparse(payload)
	if err != nil {
		return core.Plane{}, err
	}
	return core.Plane{Sparse: sp}, nil
}

// ReadPlanes reads a select reply: exactly n plane frames (ReadPlane),
// back to back, each bounded by max. A reply that ends before the n-th
// frame fails as truncated, and one with bytes after it fails too.
func ReadPlanes(r io.Reader, n int, max int64) ([]core.Plane, error) {
	planes := make([]core.Plane, n)
	for i := range planes {
		pl, err := ReadPlane(r, max)
		if err != nil {
			return nil, err
		}
		planes[i] = pl
	}
	var peek [1]byte
	switch _, err := io.ReadFull(r, peek[:]); {
	case err == nil:
		return nil, fmt.Errorf("wire: trailing bytes after %d plane frames", n)
	case !errors.Is(err, io.EOF):
		return nil, fmt.Errorf("wire: read past %d plane frames: %w", n, err)
	}
	return planes, nil
}

// --- insert payloads ---

// Payload form discriminators inside a KindPayload frame.
const (
	payloadFormPlanes    = 0
	payloadFormDeltaList = 1
)

// EncodePayload flattens an insert payload into a KindPayload frame
// body, in the layout encoder.payload writes.
func EncodePayload(p core.Payload) ([]byte, error) {
	var e encoder
	if err := e.payload(p); err != nil {
		return nil, err
	}
	return bytes.Join(e.body().Segs, nil), nil
}

// DecodePayload parses a KindPayload frame body. Its dense planes alias
// blob (array.UnmarshalDense), so blob must not be reused.
func DecodePayload(blob []byte) (core.Payload, error) {
	if len(blob) == 0 {
		return core.Payload{}, errors.New("wire: empty payload frame")
	}
	form, pos := blob[0], 1
	switch form {
	case payloadFormPlanes:
		count, next, err := readUvarint(blob, pos)
		if err != nil {
			return core.Payload{}, err
		}
		pos = next
		if count == 0 || count > uint64(len(blob)) {
			return core.Payload{}, fmt.Errorf("wire: payload claims %d planes in a %d-byte frame", count, len(blob))
		}
		p := core.Payload{Planes: make([]core.Plane, 0, sliceCap(count, len(blob)-pos, 5))}
		for i := uint64(0); i < count; i++ {
			n, next, err := readUvarint(blob, pos)
			if err != nil {
				return core.Payload{}, err
			}
			pos = next
			if uint64(len(blob)-pos) < n {
				return core.Payload{}, fmt.Errorf("wire: truncated payload plane %d", i)
			}
			a, err := array.Unmarshal(blob[pos : pos+int(n)])
			if err != nil {
				return core.Payload{}, err
			}
			pos += int(n)
			switch v := a.(type) {
			case *array.Dense:
				p.Planes = append(p.Planes, core.Plane{Dense: v})
			case *array.Sparse:
				p.Planes = append(p.Planes, core.Plane{Sparse: v})
			}
		}
		return p, nil
	case payloadFormDeltaList:
		base, next, err := readUvarint(blob, pos)
		if err != nil {
			return core.Payload{}, err
		}
		// a delta-list against version 0 is meaningless (EncodePayload
		// never produces it) and version ids are small positive ints
		if base == 0 || base > 1<<31 {
			return core.Payload{}, fmt.Errorf("wire: payload has invalid delta base %d", base)
		}
		pos = next
		count, next, err := readUvarint(blob, pos)
		if err != nil {
			return core.Payload{}, err
		}
		pos = next
		if count > uint64(len(blob)) {
			return core.Payload{}, fmt.Errorf("wire: payload claims %d updates in a %d-byte frame", count, len(blob))
		}
		p := core.Payload{DeltaBase: int(base), Updates: make([]core.CellUpdate, 0, sliceCap(count, len(blob)-pos, 3))}
		for i := uint64(0); i < count; i++ {
			alen, next, err := readUvarint(blob, pos)
			if err != nil {
				return core.Payload{}, err
			}
			pos = next
			if uint64(len(blob)-pos) < alen {
				return core.Payload{}, fmt.Errorf("wire: truncated payload update %d attr", i)
			}
			u := core.CellUpdate{Attr: string(blob[pos : pos+int(alen)])}
			pos += int(alen)
			ncoords, next, err := readUvarint(blob, pos)
			if err != nil {
				return core.Payload{}, err
			}
			pos = next
			// each coord varint is at least one byte, so a count beyond
			// the remaining input cannot be satisfied — reject before
			// allocating for it
			if ncoords > uint64(len(blob)-pos) {
				return core.Payload{}, fmt.Errorf("wire: payload update %d claims %d coords with %d bytes left", i, ncoords, len(blob)-pos)
			}
			u.Coords = make([]int64, ncoords)
			for c := range u.Coords {
				v, next, err := readVarint(blob, pos)
				if err != nil {
					return core.Payload{}, err
				}
				u.Coords[c], pos = v, next
			}
			bits, next, err := readVarint(blob, pos)
			if err != nil {
				return core.Payload{}, err
			}
			u.Bits, pos = bits, next
			p.Updates = append(p.Updates, u)
		}
		return p, nil
	default:
		return core.Payload{}, fmt.Errorf("wire: unknown payload form %d", form)
	}
}

// WritePayload frames an insert payload.
func WritePayload(w io.Writer, p core.Payload) error {
	var e encoder
	at := e.open(KindPayload)
	if err := e.payload(p); err != nil {
		return err
	}
	e.close(at)
	return e.write(w)
}

// ReadPayload reads a KindPayload frame back into an insert payload.
func ReadPayload(r io.Reader, max int64) (core.Payload, error) {
	kind, blob, err := ReadFrame(r, max)
	if err != nil {
		return core.Payload{}, err
	}
	if kind != KindPayload {
		return core.Payload{}, fmt.Errorf("%w: expected a payload frame, got kind %d", ErrUnexpectedKind, kind)
	}
	return DecodePayload(blob)
}

// MaxBatchPayloads bounds the number of payload frames ReadMultiBatch
// will decode from one write body, so a hostile endless stream of small
// valid frames cannot accumulate unbounded decoded payloads (each frame
// is already size-bounded individually; servers additionally bound the
// total body bytes).
const MaxBatchPayloads = 4096

// --- write bodies ---

// MultiPart names one put of a write body: the next Count payload
// frames after the header belong to array Name.
type MultiPart struct {
	Name  string `json:"name"`
	Count int    `json:"count"`
}

// WriteMultiBatch writes the write request body EncodeWrite encodes.
func WriteMultiBatch(w io.Writer, batches []core.MultiInsert) error {
	b, err := EncodeWrite(batches)
	if err != nil {
		return err
	}
	if _, err := b.WriteTo(w); err != nil {
		return fmt.Errorf("wire: write body: %w", err)
	}
	return nil
}

// ReadMultiBatch reads a multi-array batch body back: the header's
// part table, then exactly the payload frames it promises, rejecting
// duplicate or empty part names, zero counts, more than
// MaxBatchPayloads total payloads, and trailing bytes after the last
// frame. Each frame is bounded by max individually.
func ReadMultiBatch(r io.Reader, max int64) ([]core.MultiInsert, error) {
	kind, hdr, err := ReadFrame(r, max)
	if err != nil {
		return nil, err
	}
	if kind != KindMultiHeader {
		return nil, fmt.Errorf("%w: expected a multi-batch header frame, got kind %d", ErrUnexpectedKind, kind)
	}
	var parts []MultiPart
	if err := json.Unmarshal(hdr, &parts); err != nil {
		return nil, fmt.Errorf("wire: bad multi-batch header: %w", err)
	}
	if len(parts) == 0 {
		return nil, errors.New("wire: multi batch has no parts")
	}
	seen := make(map[string]bool, len(parts))
	total := 0
	for _, pt := range parts {
		if pt.Name == "" {
			return nil, errors.New("wire: multi batch part with an empty array name")
		}
		if seen[pt.Name] {
			return nil, fmt.Errorf("wire: multi batch names array %q twice", pt.Name)
		}
		seen[pt.Name] = true
		if pt.Count <= 0 {
			return nil, fmt.Errorf("wire: multi batch part %q claims %d payloads", pt.Name, pt.Count)
		}
		total += pt.Count
		if total > MaxBatchPayloads {
			return nil, fmt.Errorf("wire: multi batch exceeds %d payloads", MaxBatchPayloads)
		}
	}
	out := make([]core.MultiInsert, len(parts))
	for i, pt := range parts {
		ps := make([]core.Payload, pt.Count)
		for j := range ps {
			p, err := ReadPayload(r, max)
			if err != nil {
				return nil, fmt.Errorf("wire: multi batch part %q payload %d: %w", pt.Name, j, err)
			}
			ps[j] = p
		}
		out[i] = core.MultiInsert{Array: pt.Name, Payloads: ps}
	}
	var peek [1]byte
	if _, err := io.ReadFull(r, peek[:]); !errors.Is(err, io.EOF) {
		return nil, errors.New("wire: trailing bytes after multi batch")
	}
	return out, nil
}

func readUvarint(blob []byte, pos int) (uint64, int, error) {
	v, n := binary.Uvarint(blob[pos:])
	if n <= 0 {
		return 0, 0, errors.New("wire: truncated varint")
	}
	return v, pos + n, nil
}

func readVarint(blob []byte, pos int) (int64, int, error) {
	v, n := binary.Varint(blob[pos:])
	if n <= 0 {
		return 0, 0, errors.New("wire: truncated varint")
	}
	return v, pos + n, nil
}
