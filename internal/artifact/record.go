package artifact

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
)

// The on-disk record format, version 1. A pack file (see pack.go) is a
// sequence of these records, and one record is also the remote protocol's
// wire unit:
//
//	offset  size  field
//	0       4     magic "BCA1"
//	4       2     format version (little-endian)
//	6       2     kind
//	8       4     key length K
//	12      8     payload length P
//	20      K     key bytes (the full canonical key, not its hash)
//	20+K    P     payload bytes
//	20+K+P  8     CRC-64/ECMA over bytes [0, 20+K+P)
//
// Every field is length-prefixed and the checksum covers header, key and
// payload, so truncation, bit flips and cross-kind or cross-key aliasing all
// fail closed with ErrCorrupt: a decode can return the original payload or
// an error, never a different stream.

// FormatVersion is the artifact codec version. It participates in both the
// record header and (by convention) the callers' key strings; bump it when
// any payload codec or key canonicalization changes shape.
const FormatVersion = 1

var recordMagic = [4]byte{'B', 'C', 'A', '1'}

// recordHeaderLen is the fixed prefix before the key bytes.
const recordHeaderLen = 4 + 2 + 2 + 4 + 8

// recordOverhead is the non-payload cost of a record with a key of length k.
func recordOverhead(k int) int { return recordHeaderLen + k + 8 }

// ErrCorrupt reports that a record failed structural or checksum
// verification. The store treats it as a cache miss: the entry is deleted
// and the artifact regenerated.
var ErrCorrupt = errors.New("artifact: corrupt record")

// crcTable is the ECMA polynomial table shared by encode and decode.
var crcTable = crc64.MakeTable(crc64.ECMA)

// EncodeRecord frames payload as one versioned, checksummed record for
// (kind, key).
func EncodeRecord(kind uint16, key string, payload []byte) []byte {
	buf := make([]byte, 0, recordOverhead(len(key))+len(payload))
	buf = append(buf, recordMagic[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, FormatVersion)
	buf = binary.LittleEndian.AppendUint16(buf, kind)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(key)))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, key...)
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint64(buf, crc64.Checksum(buf, crcTable))
}

// DecodeRecord verifies data as a record for (kind, key) and returns its
// payload (aliasing data's backing array). Any mismatch — magic, version,
// kind, key, lengths, or checksum — returns an error wrapping ErrCorrupt.
// Decode and verification are one pass: every header field is checked as it
// is parsed and the checksum is a single CRC sweep over the whole record.
func DecodeRecord(data []byte, kind uint16, key string) ([]byte, error) {
	return decodeRecord(data, kind, key, true)
}

// decodeRecord is DecodeRecord with the checksum sweep made optional. With
// checksum false only the CRC is skipped: magic, version, kind, lengths and
// the full key comparison still run, so cross-kind and cross-key aliasing
// stay fail-closed even on the cheap path. The store uses the cheap path for
// records it has already verified once this process (see Store.get).
func decodeRecord(data []byte, kind uint16, key string, checksum bool) ([]byte, error) {
	gotKind, gotKey, payload, err := decodeRecordAny(data, checksum)
	if err != nil {
		return nil, err
	}
	if gotKind != kind {
		return nil, fmt.Errorf("%w: kind %d, want %d", ErrCorrupt, gotKind, kind)
	}
	if gotKey != key {
		return nil, fmt.Errorf("%w: key mismatch", ErrCorrupt)
	}
	return payload, nil
}

// RecordInfo structurally verifies data as a record — including the full
// checksum sweep — without expecting a particular identity, and returns the
// embedded kind and key. The remote object server uses it to authenticate a
// PUT body: the record carries its own identity, so the server can recompute
// the content address and refuse a record published under the wrong one.
func RecordInfo(data []byte) (kind uint16, key string, err error) {
	kind, key, _, err = decodeRecordAny(data, true)
	return kind, key, err
}

// decodeRecordAny parses and verifies one record's framing (and, when
// checksum is set, its CRC), returning the embedded identity and the payload
// (aliasing data's backing array).
func decodeRecordAny(data []byte, checksum bool) (kind uint16, key string, payload []byte, err error) {
	if len(data) < recordOverhead(0) {
		return 0, "", nil, fmt.Errorf("%w: %d bytes, below minimum record size", ErrCorrupt, len(data))
	}
	kind, keyLen, payLen, err := parseHeader(data)
	if err != nil {
		return 0, "", nil, err
	}
	// Check the total length with overflow-safe arithmetic: payLen is
	// attacker- (well, bit-flip-) controlled and must not wrap the sum.
	rest := uint64(len(data) - recordOverhead(0))
	if keyLen > rest || payLen != rest-keyLen {
		return 0, "", nil, fmt.Errorf("%w: lengths (key %d, payload %d) disagree with record size %d", ErrCorrupt, keyLen, payLen, len(data))
	}
	if checksum {
		body := data[:len(data)-8]
		if got, want := crc64.Checksum(body, crcTable), binary.LittleEndian.Uint64(data[len(data)-8:]); got != want {
			return 0, "", nil, fmt.Errorf("%w: checksum %#x, want %#x", ErrCorrupt, got, want)
		}
	}
	k := recordHeaderLen + int(keyLen)
	return kind, string(data[recordHeaderLen:k]), data[k : len(data)-8], nil
}

// parseHeader checks the magic and format version of the fixed header at
// the start of h (at least recordHeaderLen bytes) and returns the record's
// kind and its declared key and payload lengths, which the caller must
// check against the bytes it actually has.
func parseHeader(h []byte) (kind uint16, keyLen, payLen uint64, err error) {
	if [4]byte(h[0:4]) != recordMagic {
		return 0, 0, 0, fmt.Errorf("%w: bad magic %q", ErrCorrupt, h[0:4])
	}
	if v := binary.LittleEndian.Uint16(h[4:6]); v != FormatVersion {
		return 0, 0, 0, fmt.Errorf("%w: format version %d, want %d", ErrCorrupt, v, FormatVersion)
	}
	return binary.LittleEndian.Uint16(h[6:8]), uint64(binary.LittleEndian.Uint32(h[8:12])), binary.LittleEndian.Uint64(h[12:20]), nil
}
