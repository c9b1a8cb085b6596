package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Self-describing chunk frames. Every chunk payload is wrapped in a
// fixed 13-byte header:
//
//	offset 0: 4-byte magic "AVC1"
//	offset 4: 1-byte frame format version
//	offset 5: 4-byte payload length (little-endian uint32)
//	offset 9: 4-byte CRC32-C of the payload (little-endian)
//
// The header lets readFrames verify that the bytes at a metadata-recorded
// (file, offset, length) triple really are the frame that was committed
// there — catching torn writes, misdirected reads against a stale
// offset, and bit rot — and lets recovery distinguish a clean frame
// boundary from a torn tail. The manifest log and its snapshots reuse
// the same frame for their records.

const (
	// formatFramed is the one chunk format the store serves, stamped
	// into every array's metadata document (arrayMeta.Format). Arrays
	// written before frames existed carry 0 there; replay refuses them
	// with ErrFormat.
	formatFramed = 1

	frameMagic     = "AVC1"
	frameVersion   = 1
	frameHeaderLen = 13
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// frameLen returns the on-disk size of a payload of n bytes.
func frameLen(n int64) int64 { return n + frameHeaderLen }

// appendFrame wraps payload in a frame and appends it to dst.
func appendFrame(dst, payload []byte) []byte {
	return append(appendFrameHeader(dst, payload), payload...)
}

// appendFrameHeader appends the header of payload's frame to dst.
func appendFrameHeader(dst, payload []byte) []byte {
	dst = append(dst, frameMagic...)
	dst = append(dst, frameVersion)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, crcTable))
}

// parseFrame validates a frame read from disk (header plus payload) and
// returns the payload. wantLen is the payload length the metadata
// recorded for this frame.
func parseFrame(buf []byte, wantLen int64) ([]byte, error) {
	if int64(len(buf)) < frameHeaderLen {
		return nil, fmt.Errorf("core: frame truncated: %d bytes", len(buf))
	}
	if string(buf[:4]) != frameMagic {
		return nil, fmt.Errorf("core: bad frame magic %q", buf[:4])
	}
	if buf[4] != frameVersion {
		return nil, fmt.Errorf("core: unsupported frame version %d", buf[4])
	}
	n := int64(binary.LittleEndian.Uint32(buf[5:9]))
	if n != wantLen {
		return nil, fmt.Errorf("core: frame length %d does not match metadata length %d", n, wantLen)
	}
	if int64(len(buf)) < frameHeaderLen+n {
		return nil, fmt.Errorf("core: frame payload truncated: %d of %d bytes", len(buf)-frameHeaderLen, n)
	}
	payload := buf[frameHeaderLen : frameHeaderLen+n]
	want := binary.LittleEndian.Uint32(buf[9:13])
	if got := crc32.Checksum(payload, crcTable); got != want {
		return nil, fmt.Errorf("core: frame checksum mismatch: %08x != %08x", got, want)
	}
	return payload, nil
}
