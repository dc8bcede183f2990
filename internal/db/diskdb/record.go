package diskdb

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
)

// Segment record framing (DESIGN.md §11). Every record is one frame:
//
//	crc32(payload)  uint32 BE
//	len(payload)    uint32 BE
//	payload:
//	    kind        byte
//	    len(key)    uint32 BE
//	    key         [len(key)]byte
//	    value       rest of the payload
//
// Record kinds. Every write is a batch, committed as one Append+Sync of
// staged records followed by a commit record carrying the group's
// operation count — the single durable commit point of the group, and so
// of the chain commit it carries: replay applies a staged group only when
// its commit record survives with a matching count, so a torn batch write
// is indistinguishable from a batch that never happened. Plain puts and
// tombstones, each committed on its own, are only read: segments written
// by earlier builds hold them.
const (
	recPut       = byte(1) // individually committed put (read only)
	recDel       = byte(2) // individually committed tombstone (read only)
	recStagedPut = byte(3) // put inside a batch group
	recStagedDel = byte(4) // tombstone inside a batch group
	recCommit    = byte(5) // batch commit marker; value = op count uint32 BE
)

const (
	frameHeader   = 8         // crc32 + payload length
	payloadHeader = 5         // kind + key length
	maxPayload    = 256 << 20 // sanity cap: a frame claiming more is treated as garbage
)

var (
	// errFrameTorn reports a frame whose header or body runs past the
	// available bytes: the torn-tail signature (truncate here).
	errFrameTorn = errors.New("diskdb: torn frame")
	// errFrameGarbage reports a frame with an implausible header (zero or
	// oversized payload): framing is lost from this point on.
	errFrameGarbage = errors.New("diskdb: garbage frame header")
	// errFrameChecksum reports a fully-present frame whose payload fails
	// its CRC (at-rest bit-rot: skip and count a repair).
	errFrameChecksum = errors.New("diskdb: frame checksum mismatch")
	// errFramePayload reports a CRC-valid payload that does not parse
	// (impossible without a codec bug, but the decoder is total).
	errFramePayload = errors.New("diskdb: undecodable frame payload")
)

// record is one decoded frame.
type record struct {
	kind  byte
	key   []byte // aliases the input buffer
	value []byte // aliases the input buffer
}

// appendRecord appends the frame for one record to dst.
func appendRecord(dst []byte, kind byte, key, value []byte) []byte {
	return appendFrame(dst, kind, key, value)
}

// appendFrame is appendRecord for a key held as bytes or as a string: a
// batch keeps each key as the one string its index entry will own.
func appendFrame[K string | []byte](dst []byte, kind byte, key K, value []byte) []byte {
	plen := payloadHeader + len(key) + len(value)
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // crc32, patched below
	dst = binary.BigEndian.AppendUint32(dst, uint32(plen))
	dst = append(dst, kind)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(key)))
	dst = append(dst, key...)
	dst = append(dst, value...)
	crc := crc32.ChecksumIEEE(dst[start+frameHeader:])
	binary.BigEndian.PutUint32(dst[start:], crc)
	return dst
}

// frameSize returns the full frame length for a key/value pair.
func frameSize[K string | []byte](key K, value []byte) int {
	return frameHeader + payloadHeader + len(key) + len(value)
}

// decodeRecord decodes the frame starting at buf[0]. It returns the
// record, the total frame length consumed, and one of the errFrame*
// errors describing exactly what is wrong when the bytes are not a valid
// frame — the open-time scanner maps each to its repair action.
func decodeRecord(buf []byte) (record, int, error) {
	if len(buf) < frameHeader {
		return record{}, 0, errFrameTorn
	}
	crc := binary.BigEndian.Uint32(buf)
	plen := int(binary.BigEndian.Uint32(buf[4:]))
	if plen < payloadHeader || plen > maxPayload {
		return record{}, 0, errFrameGarbage
	}
	if len(buf) < frameHeader+plen {
		return record{}, 0, errFrameTorn
	}
	payload := buf[frameHeader : frameHeader+plen]
	if crc32.ChecksumIEEE(payload) != crc {
		return record{}, frameHeader + plen, errFrameChecksum
	}
	kind := payload[0]
	klen := int(binary.BigEndian.Uint32(payload[1:]))
	if kind < recPut || kind > recCommit || klen < 0 || payloadHeader+klen > plen {
		return record{}, frameHeader + plen, errFramePayload
	}
	return record{
		kind:  kind,
		key:   payload[payloadHeader : payloadHeader+klen],
		value: payload[payloadHeader+klen:],
	}, frameHeader + plen, nil
}
