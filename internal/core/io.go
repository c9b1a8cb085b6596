package core

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"arrayvers/internal/array"
	"arrayvers/internal/compress"
)

// Chunk payload I/O. A chunk generation is one file, its data log
// (dataLogName), and every mutation appends its frames to it (§III-B.3).
// A write — Write, Branch, Merge, and DeleteVersion's re-encodes —
// appends all of its frames as one span, chunk by chunk, so a durable
// write syncs one file however many chunks it touched. A rewrite —
// Reorganize, Compact, and the carry-forward of the versions committed
// during one — builds a new generation's log one chunk column at a
// time: every version's frame of one chunk, in id order, then the next
// chunk. A chain walk hands readFrames the delta frames it needs in
// segments of up to walkReadBytes, and the adjacent frames of one file
// come back from one pread, so a cold walk of a rewritten chain costs
// one read for its materialized root and one per segment of its deltas
// — one, unless the chain holds more than walkReadBytes of them. A
// written chain's frames are interleaved with the other chunks' frames
// of each write, so its walk costs one pread per frame. Every reader
// resolves a frame by its entry's file, offset and length, so a
// generation built before rewrites wrote the log — one
// <attr>-<chunk>.chain file per chunk beside it — reads as before, and
// its next rewrite leaves the one file.
//
// Concurrency contract: every chunk write is an append to a file whose
// committed prefix is never disturbed — files only grow at the tail —
// so readFrames may run with no store lock held: a reader's metadata
// snapshot only references (file, offset, length) triples that existed
// before the snapshot. A write or a re-encode appends to the log under
// the array's writeMu, and a rewrite to its private build directory, so
// a log has one appender at a time. The only destructive operations
// (Reorganize, Compact, DeleteArray) build a new chunk generation beside
// the live one, commit it with a metadata commit, and retire the old
// generation; the last release of a reader that pinned it removes it.
// That pin is the read path's only lifetime rule: readFrames opens each
// file it touches and closes it before returning, always inside a
// snapshot that pins the directory, so no handle outlives its read or
// points at an unlinked inode, and open descriptors are bounded by the
// reads in flight.
//
// Durability contract: with Options.Durability on, every mutator fsyncs
// the log it appended to (and the chunks directory, when it created the
// log) before committing metadata, so the manifest-log append is the
// commit point: everything a committed version references is already
// durable, and anything past the last committed frame in a file is
// garbage that recovery truncates.

// dataLogName is the file a generation's frames are appended to.
const dataLogName = "data.log"

// appendFrames appends blobs to the data log of ws's directory, in the
// order given, through one open of the file, records the span in ws —
// what a failure reached too, so the sweep can reclaim it — and points
// entries at the frames. A nil blob is a chunk an in-place build left
// where it is (buildRewrite): nothing is appended for it and its entry
// is kept, and with no other blob the log is not opened. The appends
// are left unsynced: the mutation's commit point syncs the log once
// (writeSet.sync).
func (s *Store) appendFrames(ws *writeSet, blobs [][]byte, entries []chunkEntry) error {
	if !slices.ContainsFunc(blobs, func(b []byte) bool { return b != nil }) {
		return nil
	}
	start, end, err := s.appendBlobs(ws.log(), blobs)
	if start >= 0 {
		if ws.empty() {
			ws.start = start
		}
		ws.end = end
	}
	if err != nil {
		return err
	}
	off := start
	for i, blob := range blobs {
		if blob == nil {
			continue
		}
		entries[i].File, entries[i].Offset = dataLogName, off
		off += frameLen(int64(len(blob)))
		s.addWrite(int64(len(blob)))
	}
	return nil
}

// appendBlobs appends each non-nil payload to path as one frame — the
// frame header, then the payload itself — through one open of the file.
// It returns the offset the first frame starts at (-1 when the file
// could not be opened) and the offset one past the last byte it wrote,
// also on error. The appends are not fsynced: the caller's commit point syncs
// the file once (writeSet.sync).
// The close error is always checked — a failed close after a buffered
// write is silent data loss.
func (s *Store) appendBlobs(path string, payloads [][]byte) (start, end int64, err error) {
	for _, p := range payloads {
		// the frame header stores the payload length as uint32; a payload
		// it cannot represent would commit as a permanently unreadable
		// frame, so refuse it up front (chunks are ~10 MB by design)
		if int64(len(p)) >= 1<<32 {
			return -1, -1, fmt.Errorf("core: chunk payload of %d bytes exceeds the frame format limit", len(p))
		}
	}
	f, err := s.fs.Append(path)
	if err != nil {
		return -1, -1, err
	}
	start, err = f.Size()
	if err != nil {
		_ = f.Close() // the size error is the failure; nothing was written
		return -1, -1, err
	}
	end = start
	// header and payload go out as two writes, so the payload is never
	// copied just to put 13 bytes in front of it
	var hdr [frameHeaderLen]byte
	var werr error
	for _, p := range payloads {
		if p == nil {
			continue
		}
		var n int
		n, werr = f.Write(appendFrameHeader(hdr[:0], p))
		end += int64(n)
		if werr == nil {
			n, werr = f.Write(p)
			end += int64(n)
		}
		if werr != nil {
			break
		}
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return start, end, fmt.Errorf("core: append chunk to %s: %w", filepath.Base(path), werr)
	}
	return start, end, nil
}

// ErrExtentPastEOF is returned (wrapped) by a chunk read whose recorded
// extent reaches past the end of its file. Every extent of a read is
// checked against its file's size before any buffer is sized by it, so
// a hostile or bit-rotted manifest length fails without allocating.
var ErrExtentPastEOF = errors.New("core: chunk extent past end of file")

// frameRef names one frame a read wants: its chunk entry and the
// version that entry belongs to, which errors name.
type frameRef struct {
	id int
	e  chunkEntry
}

// frameRun is one pread of readFrames: the frames at idx (indices into
// its frames, all in one file, adjacent, sorted by offset) spanning
// [off, end) of f.
type frameRun struct {
	f        *os.File
	idx      []int
	off, end int64
}

// readFrames fetches the payloads of frames from one chunks directory;
// out[i] is frames[i]'s. Each file it touches is opened and stat'ed
// once and closed on return, so no handle outlives the read. The frames
// of one file are sorted by offset and read as runs: frames that touch
// — the next starts where the last ended, as a rewritten chunk column's
// do — share one pread. Frames that do not touch — one chunk's frames
// across writes, or frames in different files — are separate reads.
// Every run is read into its own part of one buffer, which the payloads
// then alias, so the call holds no bytes but its frames and allocates
// one buffer however many runs it reads. Two passes: the first groups
// the runs and checks every one against its file's size, the second
// allocates and reads, so no buffer is made until every extent is known
// to fit. Each frame's header — magic,
// length, CRC32-C — is validated on its own, so torn writes, stale
// offsets and bit rot surface as errors that name the frame's file,
// offset and version. Callers pin dir's generation (a snapshot, or a
// writer's writeMu), which keeps dir in place.
func (s *Store) readFrames(dir string, frames []frameRef) ([][]byte, error) {
	order := make([]int, len(frames))
	for i, fr := range frames {
		// no real file reaches 2^62 bytes, which keeps every end below
		// from overflowing
		if e := fr.e; e.Offset < 0 || e.Offset > 1<<62 || e.Length < 0 || e.Length >= 1<<32 {
			return nil, fmt.Errorf("%w: %s@%d+%d of version %d", ErrExtentPastEOF, e.File, e.Offset, e.Length, fr.id)
		}
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		ea, eb := frames[a].e, frames[b].e
		return cmp.Or(strings.Compare(ea.File, eb.File), cmp.Compare(ea.Offset, eb.Offset))
	})
	var (
		runs  []frameRun
		files []*os.File // one per file touched, closed on return
		size  int64      // the last-opened file's size
	)
	defer func() {
		for _, f := range files {
			_ = f.Close() // read-only handle; close cannot lose data
		}
	}()
	for lo := 0; lo < len(order); {
		first := frames[order[lo]].e
		end := first.Offset + frameLen(first.Length)
		hi := lo + 1
		for ; hi < len(order); hi++ {
			e := frames[order[hi]].e
			if e.File != first.File || e.Offset > end {
				break
			}
			end = max(end, e.Offset+frameLen(e.Length))
		}
		if lo == 0 || frames[order[lo-1]].e.File != first.File {
			f, err := os.Open(filepath.Join(dir, first.File))
			if err != nil {
				return nil, fmt.Errorf("core: open chunk file: %w", err)
			}
			files = append(files, f)
			fi, err := f.Stat()
			if err != nil {
				return nil, fmt.Errorf("core: stat chunk file %s: %w", first.File, err)
			}
			size = fi.Size()
		}
		for _, i := range order[lo:hi] {
			if fr := frames[i]; fr.e.Offset+frameLen(fr.e.Length) > size {
				return nil, fmt.Errorf("%w: %s@%d+%d of version %d, file has %d bytes", ErrExtentPastEOF, fr.e.File, fr.e.Offset, fr.e.Length, fr.id, size)
			}
		}
		runs = append(runs, frameRun{files[len(files)-1], order[lo:hi], first.Offset, end})
		lo = hi
	}
	var total int64
	for _, r := range runs {
		total += r.end - r.off
	}
	out := make([][]byte, len(frames))
	buf := make([]byte, total)
	for _, r := range runs {
		n := r.end - r.off
		if err := s.readRun(frames, r, buf[:n:n], out); err != nil {
			return nil, err
		}
		buf = buf[n:]
	}
	return out, nil
}

// readRun reads one checked run with one pread into buf, its length,
// and parses each of its frames out of it into out.
func (s *Store) readRun(frames []frameRef, r frameRun, buf []byte, out [][]byte) error {
	if _, err := r.f.ReadAt(buf, r.off); err != nil {
		return fmt.Errorf("core: read chunk %s@%d+%d: %w", frames[r.idx[0]].e.File, r.off, len(buf), err)
	}
	var bytes int64
	for _, i := range r.idx {
		fr := frames[i]
		at := fr.e.Offset - r.off
		payload, err := parseFrame(buf[at:at+frameLen(fr.e.Length)], fr.e.Length)
		if err != nil {
			return fmt.Errorf("core: chunk %s@%d of version %d: %w", fr.e.File, fr.e.Offset, fr.id, err)
		}
		bytes += fr.e.Length
		out[i] = payload
	}
	s.addRead(1, int64(len(r.idx)), bytes)
	return nil
}

// codecParams derives the compression hints for a chunk payload. The
// image codecs (PNG, Wavelet) interpret the buffer as 2D cells; they are
// only applicable to materialized dense chunks, so callers pass ok=false
// payload kinds through pickCodec first.
func codecParams(box array.Box, dt array.DataType) compress.Params {
	shape := box.Shape()
	w := int(shape[len(shape)-1])
	h := 1
	for _, s := range shape[:len(shape)-1] {
		h *= int(s)
	}
	return compress.Params{Elem: dt.Size(), Width: w, Height: h}
}

// pickCodec decides the effective codec for a payload. Image codecs fall
// back to LZ for payloads that are not raw dense cell grids (delta blobs,
// sparse encodings), whose byte streams they cannot model.
func pickCodec(requested compress.Codec, rawDense bool) compress.Codec {
	if !rawDense && (requested == compress.PNG || requested == compress.Wavelet) {
		return compress.LZ
	}
	return requested
}

// sealParams derives compression parameters: raw dense chunks expose
// their 2D cell structure; everything else (delta blobs, sparse
// encodings) is an opaque byte stream.
func sealParams(rawDense bool, box array.Box, dt array.DataType) compress.Params {
	if rawDense {
		return codecParams(box, dt)
	}
	return compress.Params{Elem: 1}
}

// seal compresses an encoded payload with the effective codec. It
// returns the stored bytes and the codec actually used; if compression
// would grow the payload it is stored uncompressed ("each chunk is
// optionally compressed", §II-A).
func seal(codec compress.Codec, payload []byte, p compress.Params) ([]byte, compress.Codec, error) {
	if codec == compress.None {
		return payload, compress.None, nil
	}
	packed, err := compress.Compress(codec, payload, p)
	if err != nil {
		return nil, 0, err
	}
	if len(packed) >= len(payload) {
		return payload, compress.None, nil
	}
	return packed, codec, nil
}

// unseal reverses seal.
func unseal(codec compress.Codec, blob []byte, p compress.Params) ([]byte, error) {
	return compress.Decompress(codec, blob, p)
}
