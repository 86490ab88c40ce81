// Package frame is the binary codec for a job spec that carries an
// explicit matrix: a small JSON header followed by the matrix values as
// raw little-endian float64s, guarded by a CRC. It replaces decimal JSON
// text on the two hot copies of a submitted matrix — the v2 submit body
// (Content-Type ContentType) and the journal's KindSubmitted spec blob —
// where the text form costs about 20 bytes and a float parse per element.
// Float64 bits travel exactly, so a framed matrix fingerprints and solves
// bit-identically to the same matrix sent as JSON.
//
// Layout (integers little-endian):
//
//	"JSPF" u32(Version) u32(len hdr) hdr u32(count) count × f64 u32(crc32c)
//
// The CRC (Castagnoli) covers every byte before it. Decode is total: any
// input either decodes or returns an error, and the value count is checked
// against the bytes actually present and against MaxCount before the
// values are allocated. Header reads the header alone, without the CRC
// pass over the values, for routers that only need a field of it.
package frame

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

const (
	// ContentType is the HTTP media type of a framed request body.
	ContentType = "application/x-jacobi-frame"
	// Version is the layout version this build writes and reads.
	Version = 1
	// MaxCount bounds the values one frame may carry: a 4096² matrix, the
	// largest a job spec may name.
	MaxCount = 4096 * 4096
	// MaxHeader bounds the JSON header; a spec header is a few hundred
	// bytes.
	MaxHeader = 1 << 20

	magic    = "JSPF"
	preamble = 12 // magic, version, header length
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Is reports whether b starts with the frame magic. It says nothing about
// the rest of b; legacy JSON never starts with it.
func Is(b []byte) bool {
	return len(b) >= len(magic) && string(b[:len(magic)]) == magic
}

// Encode returns the frame of hdr and data. The caller keeps data within
// MaxCount and hdr within MaxHeader; Decode rejects larger frames.
func Encode(hdr []byte, data []float64) []byte {
	b := make([]byte, 0, preamble+len(hdr)+8+8*len(data))
	b = append(b, magic...)
	b = binary.LittleEndian.AppendUint32(b, Version)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(hdr)))
	b = append(b, hdr...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(data)))
	off := len(b)
	b = b[:off+8*len(data)]
	for i, v := range data {
		binary.LittleEndian.PutUint64(b[off+8*i:], math.Float64bits(v))
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
}

// Header returns the frame's JSON header (aliasing b) and the offset of
// the value count that follows it. It checks the magic, the version and
// the header length, not the CRC.
func Header(b []byte) (hdr []byte, rest int, err error) {
	if len(b) < preamble {
		return nil, 0, fmt.Errorf("frame: %d bytes is too short for a frame", len(b))
	}
	if !Is(b) {
		return nil, 0, fmt.Errorf("frame: bad magic %q", b[:len(magic)])
	}
	if v := binary.LittleEndian.Uint32(b[4:]); v != Version {
		return nil, 0, fmt.Errorf("frame: version %d, this build reads %d", v, Version)
	}
	n := binary.LittleEndian.Uint32(b[8:])
	if n > MaxHeader || uint64(n) > uint64(len(b)-preamble) {
		return nil, 0, fmt.Errorf("frame: header length %d exceeds the %d bytes left", n, len(b)-preamble)
	}
	return b[preamble : preamble+int(n)], preamble + int(n), nil
}

// Decode parses a whole frame: the header (aliasing b) and a fresh slice
// of the values. b must hold exactly one frame.
func Decode(b []byte) (hdr []byte, data []float64, err error) {
	hdr, off, err := Header(b)
	if err != nil {
		return nil, nil, err
	}
	if len(b)-off < 8 {
		return nil, nil, fmt.Errorf("frame: truncated after the header")
	}
	count := uint64(binary.LittleEndian.Uint32(b[off:]))
	off += 4
	body := len(b) - off - 4
	if count > MaxCount {
		return nil, nil, fmt.Errorf("frame: %d values exceed the limit of %d", count, MaxCount)
	}
	if uint64(body) != 8*count {
		return nil, nil, fmt.Errorf("frame: %d values need %d bytes, %d present", count, 8*count, body)
	}
	if crc32.Checksum(b[:len(b)-4], castagnoli) != binary.LittleEndian.Uint32(b[len(b)-4:]) {
		return nil, nil, fmt.Errorf("frame: CRC mismatch")
	}
	data = make([]float64, count)
	for i := range data {
		data[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[off+8*i:]))
	}
	return hdr, data, nil
}
