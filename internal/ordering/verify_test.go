package ordering

import (
	"math/rand"
	"testing"

	"repro/internal/sequence"
)

// The central result the rest of the repository builds on: for every family
// of valid link sequences, the sweep schedule is an exact round-robin at
// block level (every pair of the 2^(d+1) blocks paired exactly once).
func TestVerifySweepAllFamilies(t *testing.T) {
	for _, fam := range AllFamilies() {
		for d := 0; d <= 6; d++ {
			sw, err := BuildSweep(d, fam)
			if err != nil {
				t.Fatalf("%s d=%d: %v", fam.Name(), d, err)
			}
			st := NewState(d)
			if err := VerifySweep(st, sw, 0); err != nil {
				t.Errorf("%s d=%d: %v", fam.Name(), d, err)
			}
		}
	}
}

// Multi-sweep correctness: the block placement left by sweep s (including
// the final "last transition") must again yield an exact round-robin for
// sweep s+1 under the σ_s link permutation, across more than d sweeps.
func TestVerifyMultipleSweeps(t *testing.T) {
	for _, fam := range AllFamilies() {
		for d := 1; d <= 5; d++ {
			sw, err := BuildSweep(d, fam)
			if err != nil {
				t.Fatal(err)
			}
			st := NewState(d)
			for s := 0; s < 2*d+1; s++ {
				if err := VerifySweep(st, sw, s); err != nil {
					t.Fatalf("%s d=%d sweep %d: %v", fam.Name(), d, s, err)
				}
			}
		}
	}
}

// Property test: the construction is correct for ANY family of valid
// e-sequences, not just the paper's. Random Hamiltonian-path families are
// substituted for every phase.
func TestVerifySweepRandomFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 12; trial++ {
		d := 1 + rng.Intn(6)
		phases := make(map[int]sequence.Seq)
		for e := 1; e <= d; e++ {
			phases[e] = sequence.RandomESequence(e, rng)
		}
		fam, err := CustomFamily("random", phases)
		if err != nil {
			t.Fatal(err)
		}
		sw, err := BuildSweep(d, fam)
		if err != nil {
			t.Fatal(err)
		}
		st := NewState(d)
		for s := 0; s < 3; s++ {
			if err := VerifySweep(st, sw, s); err != nil {
				t.Fatalf("trial %d d=%d sweep %d: %v", trial, d, s, err)
			}
		}
	}
}

// Column-level round robin: all m(m-1)/2 column pairs exactly once per
// sweep, including non-power-of-two m and blocks of unequal size.
func TestVerifySweepColumns(t *testing.T) {
	cases := []struct{ m, d int }{
		{8, 1}, {8, 2}, {16, 2}, {16, 3}, {32, 2},
		{12, 1}, {10, 2}, {17, 2}, // uneven blocks
		{64, 4}, {64, 5}, // one column per block at d=5
		{6, 0}, // single node
	}
	for _, c := range cases {
		for _, fam := range []Family{NewBRFamily(), NewPermutedBRFamily(), NewDegree4Family()} {
			if err := VerifySweepColumns(c.m, c.d, fam, 2); err != nil {
				t.Errorf("m=%d d=%d %s: %v", c.m, c.d, fam.Name(), err)
			}
		}
	}
}

// m smaller than the block count: empty blocks must not break the
// round-robin of the non-empty ones.
func TestVerifySweepColumnsTinyMatrix(t *testing.T) {
	if err := VerifySweepColumns(5, 2, NewBRFamily(), 1); err != nil {
		t.Errorf("m=5 d=2: %v", err)
	}
}

// A deliberately corrupted schedule must be rejected by the verifier.
func TestVerifySweepDetectsCorruption(t *testing.T) {
	sw, err := BuildSweep(3, NewBRFamily())
	if err != nil {
		t.Fatal(err)
	}
	// Repeat the first exchange link twice: blocks bounce back and pair
	// twice.
	bad := &Sweep{D: sw.D, FamilyName: "corrupt", Transitions: append([]Transition(nil), sw.Transitions...)}
	bad.Transitions[1] = bad.Transitions[0]
	st := NewState(3)
	if err := VerifySweep(st, bad, 0); err == nil {
		t.Error("corrupted schedule passed verification")
	}
}

func TestCCubePropertyDetectsCorruption(t *testing.T) {
	sw, err := BuildSweep(3, NewBRFamily())
	if err != nil {
		t.Fatal(err)
	}
	bad := &Sweep{D: 3, FamilyName: "corrupt", Transitions: append([]Transition(nil), sw.Transitions...)}
	bad.Transitions[7].Link = 0 // division after phase 3 should use link e-1 = 2
	if err := CCubeProperty(bad); err == nil {
		t.Error("bad division link passed CCubeProperty")
	}
	bad2 := &Sweep{D: 3, FamilyName: "corrupt", Transitions: append([]Transition(nil), sw.Transitions...)}
	bad2.Transitions[0].Link = 5 // out-of-subcube exchange link
	if err := CCubeProperty(bad2); err == nil {
		t.Error("out-of-range link passed CCubeProperty")
	}
}

// The d=1 sweep worked out by hand in DESIGN.md: blocks (0,1),(2,3) ->
// pairs {0,1},{2,3}; then {0,3},{2,1}; then {3,1},{2,0}.
func TestStateD1HandExample(t *testing.T) {
	sw, err := BuildSweep(1, NewBRFamily())
	if err != nil {
		t.Fatal(err)
	}
	var got [][2][2]int
	st := NewState(1)
	st.RunSweep(sw, 0, func(step int, cur *State) {
		n0, n1 := cur.Node(0), cur.Node(1)
		got = append(got, [2][2]int{{n0.A, n0.B}, {n1.A, n1.B}})
	})
	want := [][2][2]int{
		{{0, 1}, {2, 3}},
		{{0, 3}, {2, 1}},
		{{3, 1}, {2, 0}},
	}
	if len(got) != len(want) {
		t.Fatalf("steps = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("step %d: %v, want %v", i, got[i], want[i])
		}
	}
}

func TestDivisionSend(t *testing.T) {
	// bit=0 endpoint sends its stationary block.
	if !DivisionSend(0b100, 1) {
		t.Error("node 4 (bit1=0) should send slot A on link 1")
	}
	if DivisionSend(0b110, 1) {
		t.Error("node 6 (bit1=1) should send slot B on link 1")
	}
}

func TestStateApplyPanicsOnBadLink(t *testing.T) {
	st := NewState(2)
	defer func() {
		if recover() == nil {
			t.Error("Apply with bad link did not panic")
		}
	}()
	st.Apply(ExchangeTrans, 5)
}

func TestStateBlocksCopy(t *testing.T) {
	st := NewState(2)
	b := st.Blocks()
	b[0].A = 99
	if st.Node(0).A == 99 {
		t.Error("Blocks returned aliasing slice")
	}
}

func TestVerifyOrdering(t *testing.T) {
	for _, fam := range AllFamilies() {
		for d := 1; d <= 4; d++ {
			if err := VerifyOrdering(fam, d, 3); err != nil {
				t.Errorf("%s d=%d: %v", fam.Name(), d, err)
			}
		}
	}
}
