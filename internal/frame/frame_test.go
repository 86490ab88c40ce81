package frame

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"strings"
	"testing"
)

var sample = []float64{1.5, math.Copysign(0, -1), math.Inf(1), math.SmallestNonzeroFloat64, math.NaN(), 1e308}

// sameBits compares float slices bit for bit (NaN payloads and -0
// included).
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		hdr  string
		data []float64
	}{
		{`{"dim":2}`, sample},
		{``, nil},
		{`{}`, []float64{}},
	} {
		b := Encode([]byte(tc.hdr), tc.data)
		if want := 12 + len(tc.hdr) + 4 + 8*len(tc.data) + 4; len(b) != want {
			t.Fatalf("encoded %d bytes, want %d", len(b), want)
		}
		if !Is(b) {
			t.Fatal("encoded frame lacks the magic")
		}
		hdr, data, err := Decode(b)
		if err != nil {
			t.Fatal(err)
		}
		if string(hdr) != tc.hdr || !sameBits(data, tc.data) {
			t.Fatalf("round trip: hdr %q data %v, want %q %v", hdr, data, tc.hdr, tc.data)
		}
		h2, _, err := Header(b)
		if err != nil || string(h2) != tc.hdr {
			t.Fatalf("Header = %q, %v; want %q", h2, err, tc.hdr)
		}
	}
}

func crc32c(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// withCount rewrites a frame's value count and re-seals its CRC, so the
// decoder's count checks are what fail, not the checksum.
func withCount(b []byte, count uint32) []byte {
	b = append([]byte(nil), b...)
	_, off, _ := Header(b)
	binary.LittleEndian.PutUint32(b[off:], count)
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32c(b[:len(b)-4]))
	return b
}

func TestDecodeRejects(t *testing.T) {
	good := Encode([]byte(`{"matrix":{"n":2}}`), []float64{1, 2, 2, 1})
	flip := func(i int) []byte {
		b := append([]byte(nil), good...)
		b[i] ^= 0x01
		return b
	}
	hugeHdr := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(hugeHdr[8:], MaxHeader+1)
	for _, tc := range []struct {
		name string
		b    []byte
		want string
	}{
		{"empty", nil, "too short"},
		{"bad magic", flip(0), "bad magic"},
		{"bad version", flip(4), "version"},
		{"header past end", good[:20], "header length"},
		{"header over cap", hugeHdr, "header length"},
		{"truncated after header", good[:12+18+3], "truncated"},
		{"count past data", withCount(good, 5), "need"},
		{"count short of data", withCount(good, 3), "need"},
		{"count over cap", withCount(good, MaxCount+1), "exceed"},
		{"bad CRC", flip(len(good) - 9), "CRC"},
		{"flipped CRC byte", flip(len(good) - 1), "CRC"},
		{"trailing byte", append(append([]byte(nil), good...), 0), "need"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := Decode(tc.b)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Decode error %v, want one mentioning %q", err, tc.want)
			}
		})
	}
}

// FuzzFrameDecode: arbitrary bytes either decode or error, never panic or
// over-allocate, and whatever decodes re-encodes to the same bytes.
func FuzzFrameDecode(f *testing.F) {
	good := Encode([]byte(`{"matrix":{"n":2},"dim":1}`), []float64{1, 2, 2, 1})
	f.Add(good)
	f.Add(good[:len(good)-1])
	f.Add(Encode(nil, nil))
	f.Add(withCount(good, MaxCount+1))
	f.Add([]byte("JSPF"))
	f.Add([]byte(`{"matrix":{"n":1,"data":[1]}}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		hdr, data, err := Decode(b)
		if err != nil {
			return
		}
		if len(data) > MaxCount || 8*len(data) > len(b) {
			t.Fatalf("decoded %d values from %d bytes", len(data), len(b))
		}
		if again := Encode(hdr, data); !bytes.Equal(again, b) {
			t.Fatalf("re-encoded frame differs from its input")
		}
		if h2, _, err := Header(b); err != nil || !bytes.Equal(h2, hdr) {
			t.Fatalf("Header disagrees with Decode: %q vs %q (%v)", h2, hdr, err)
		}
	})
}
