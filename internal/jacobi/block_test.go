package jacobi

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/matrix"
)

func TestBuildBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := matrix.RandomSymmetric(10, rng)
	blocks, err := engine.BuildBlocks(a, 1) // 4 blocks: 3,3,2,2 columns
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 4 {
		t.Fatalf("blocks = %d", len(blocks))
	}
	sizes := []int{3, 3, 2, 2}
	colSeen := make(map[int]bool)
	for i, b := range blocks {
		if b.ID != i {
			t.Errorf("block %d has ID %d", i, b.ID)
		}
		if b.NumCols() != sizes[i] {
			t.Errorf("block %d has %d cols, want %d", i, b.NumCols(), sizes[i])
		}
		for k, c := range b.Cols {
			colSeen[c] = true
			// A column copied correctly.
			if !reflect.DeepEqual(b.A[k], append([]float64(nil), a.Col(c)...)) {
				t.Errorf("block %d col %d: A mismatch", i, c)
			}
			// U column is the identity column.
			for r, v := range b.U[k] {
				want := 0.0
				if r == c {
					want = 1
				}
				if v != want {
					t.Errorf("block %d col %d: U[%d] = %g", i, c, r, v)
				}
			}
		}
	}
	if len(colSeen) != 10 {
		t.Errorf("covered %d columns", len(colSeen))
	}
	if _, err := engine.BuildBlocks(matrix.NewDense(3, 4), 1); err == nil {
		t.Error("non-square accepted")
	}
}

func TestGatherInvertsBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := matrix.RandomSymmetric(8, rng)
	blocks, err := engine.BuildBlocks(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := matrix.NewDense(8, 8)
	u := matrix.NewDense(8, 8)
	engine.Gather(blocks, w, u)
	if !w.Equal(a, 0) {
		t.Error("gathered W differs from A")
	}
	if !u.Equal(matrix.Identity(8), 0) {
		t.Error("gathered U differs from I")
	}
}

func TestEncodeDecodeBlockRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := matrix.RandomSymmetric(6, rng)
	blocks, err := engine.BuildBlocks(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		msg := engine.EncodeBlock(b, 6, 6)
		got, err := engine.DecodeBlock(msg, 6, 6)
		if err != nil {
			t.Fatal(err)
		}
		if got.ID != b.ID || !reflect.DeepEqual(got.Cols, b.Cols) ||
			!reflect.DeepEqual(got.A, b.A) || !reflect.DeepEqual(got.U, b.U) {
			t.Errorf("block %d did not round-trip", b.ID)
		}
	}
}

func TestDecodeBlockErrors(t *testing.T) {
	if _, err := engine.DecodeBlock([]float64{1}, 4, 4); err == nil {
		t.Error("short message accepted")
	}
	if _, err := engine.DecodeBlock([]float64{0, 2, 0}, 4, 4); err == nil {
		t.Error("truncated message accepted")
	}
}

// Pairing functions perform exactly the expected number of pair visits.
func TestPairCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := matrix.RandomSymmetric(12, rng)
	blocks, err := engine.BuildBlocks(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	var conv engine.ConvTracker
	engine.PairWithin(blocks[0], &conv) // 3 columns -> 3 pairs
	if conv.Pairs != 3 {
		t.Errorf("PairWithin visited %d pairs, want 3", conv.Pairs)
	}
	conv = engine.ConvTracker{}
	engine.PairCross(blocks[0], blocks[1], &conv) // 3x3
	if conv.Pairs != 9 {
		t.Errorf("PairCross visited %d pairs, want 9", conv.Pairs)
	}
	conv = engine.ConvTracker{}
	engine.PairCrossSlice(blocks[0], blocks[1], 1, 3, &conv) // 3x2
	if conv.Pairs != 6 {
		t.Errorf("PairCrossSlice visited %d pairs, want 6", conv.Pairs)
	}
}

// PairCross then PairCrossSlice over the full range perform the same
// rotations: slicing is a pure partition of the iteration space.
func TestPairCrossSlicePartition(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := matrix.RandomSymmetric(12, rng)
	b1, err := engine.BuildBlocks(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := engine.BuildBlocks(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	var c1, c2 engine.ConvTracker
	engine.PairCross(b1[0], b1[1], &c1)
	for j := 0; j < b2[1].NumCols(); j++ {
		engine.PairCrossSlice(b2[0], b2[1], j, j+1, &c2)
	}
	if !reflect.DeepEqual(b1[0].A, b2[0].A) || !reflect.DeepEqual(b1[1].A, b2[1].A) {
		t.Error("sliced pairing diverged from full pairing")
	}
	if c1.Rotations != c2.Rotations {
		t.Errorf("rotation counts differ: %d vs %d", c1.Rotations, c2.Rotations)
	}
}
