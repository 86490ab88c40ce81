package engine

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/matrix"
)

// TestDecodeCorruptHeaders: a corrupt count header (negative, NaN, huge,
// or larger than the message) makes DecodeBlock and DecodeBlocks return an
// error — never panic, never allocate by the header. 2^61 columns of
// m+fm+1 = 5 values wrap the naive length product negative.
func TestDecodeCorruptHeaders(t *testing.T) {
	const m, fm = 2, 2
	huge := math.Ldexp(1, 61)
	block := []struct {
		name string
		msg  []float64
	}{
		{"empty", nil},
		{"one value", []float64{0}},
		{"negative", []float64{0, -1, 0, 0, 0, 0, 0}},
		{"NaN", []float64{0, math.NaN(), 0, 0, 0, 0, 0}},
		{"+Inf", []float64{0, math.Inf(1), 0, 0, 0, 0, 0}},
		{"2^61 wraps", []float64{0, huge, 0, 0, 0, 0, 0}},
		{"2^63", []float64{0, math.Ldexp(1, 63), 0, 0, 0, 0, 0}},
		{"short", []float64{0, 2, 0, 1, 2, 3, 4}},
	}
	for _, tc := range block {
		t.Run("DecodeBlock/"+tc.name, func(t *testing.T) {
			if b, err := DecodeBlock(tc.msg, m, fm); err == nil {
				t.Fatalf("decoded %+v, want an error", b)
			}
		})
		t.Run("DecodeBlocks/part/"+tc.name, func(t *testing.T) {
			if bs, err := DecodeBlocks(append([]float64{1}, tc.msg...), m, fm); err == nil {
				t.Fatalf("decoded %d blocks, want an error", len(bs))
			}
		})
	}
	valid := EncodeBlock(&Block{ID: 3, Cols: []int{5}, A: [][]float64{{1, 2}}, U: [][]float64{{3, 4}}}, m, fm)
	combined := []struct {
		name string
		hdr  float64
	}{
		{"negative", -1},
		{"NaN", math.NaN()},
		{"-Inf", math.Inf(-1)},
		{"huge", huge},
		{"more parts than fit", 4},
	}
	for _, tc := range combined {
		t.Run("DecodeBlocks/count/"+tc.name, func(t *testing.T) {
			msg := append([]float64{tc.hdr}, valid...)
			if bs, err := DecodeBlocks(msg, m, fm); err == nil {
				t.Fatalf("decoded %d blocks, want an error", len(bs))
			}
		})
	}
	if bs, err := DecodeBlocks(append([]float64{1}, valid...), m, fm); err != nil || len(bs) != 1 {
		t.Fatalf("valid combined message: %d blocks, err %v", len(bs), err)
	}
}

// TestDecodeAliasesCapped: decoded columns are views of the message, each
// capped at its own height, so appending to one cannot overwrite the next.
func TestDecodeAliasesCapped(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	blocks, err := BuildFactorBlocks(matrix.RandomDense(6, 8, rng), 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	msg := EncodeBlocks(blocks[:2], 6, 8)
	if len(msg) != cap(msg) {
		t.Errorf("EncodeBlocks buffer len %d cap %d, want exact size", len(msg), cap(msg))
	}
	got, err := DecodeBlocks(msg, 6, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		for k := range b.Cols {
			if cap(b.A[k]) != 6 || cap(b.U[k]) != 8 {
				t.Fatalf("block %d col %d: caps (%d, %d), want (6, 8)", b.ID, k, cap(b.A[k]), cap(b.U[k]))
			}
		}
	}
	got[0].A[0][0] = 42
	if msg[4] != 42 {
		t.Errorf("decoded column does not alias the message")
	}
}

// BenchmarkBlockCodec256 round-trips one node's two blocks of an n=256,
// d=3 eigensolve (16 columns each, 256-high working and factor columns)
// through EncodeBlocks and DecodeBlocks — the emulated backend's per-
// exchange serialization cost.
func BenchmarkBlockCodec256(b *testing.B) {
	rng := rand.New(rand.NewSource(256))
	blocks, err := BuildBlocks(matrix.RandomSymmetric(256, rng), 3)
	if err != nil {
		b.Fatal(err)
	}
	pair := blocks[:2]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msg := EncodeBlocks(pair, 256, 256)
		if _, err := DecodeBlocks(msg, 256, 256); err != nil {
			b.Fatal(err)
		}
	}
}
