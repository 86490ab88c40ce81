package ordering

import "fmt"

// VerifySweep checks that executing the sweep schedule from the given state
// pairs every unordered pair of the 2^(d+1) blocks exactly once — the
// defining property of a parallel Jacobi ordering at block granularity. The
// state is advanced through the sweep (left ready for the next one), so
// multi-sweep correctness can be checked by calling VerifySweep repeatedly
// with increasing sweepIdx.
func VerifySweep(st *State, sw *Sweep, sweepIdx int) error {
	nb := sw.NumBlocks()
	paired := make([]int, nb*nb)
	var firstErr error
	st.RunSweep(sw, sweepIdx, func(step int, cur *State) {
		for p := 0; p < 1<<uint(sw.D); p++ {
			blocks := cur.Node(p)
			a, b := blocks.A, blocks.B
			if a == b || a < 0 || b < 0 || a >= nb || b >= nb {
				if firstErr == nil {
					firstErr = fmt.Errorf("ordering: step %d node %d holds invalid blocks (%d,%d)", step, p, a, b)
				}
				return
			}
			if a > b {
				a, b = b, a
			}
			paired[a*nb+b]++
			if paired[a*nb+b] > 1 && firstErr == nil {
				firstErr = fmt.Errorf("ordering: sweep %d step %d pairs blocks (%d,%d) a second time", sweepIdx, step, a, b)
			}
		}
	})
	if firstErr != nil {
		return firstErr
	}
	for a := 0; a < nb; a++ {
		for b := a + 1; b < nb; b++ {
			if paired[a*nb+b] != 1 {
				return fmt.Errorf("ordering: sweep %d pairs blocks (%d,%d) %d times, want 1", sweepIdx, a, b, paired[a*nb+b])
			}
		}
	}
	return nil
}

// VerifySweepColumns checks the ordering at column granularity for an m×m
// matrix: one sweep must rotate every unordered pair of columns exactly
// once. Cross-block pairs come from the step pairings; within-block pairs
// are performed locally at the start of the sweep (step 1 of the paper's
// block algorithm).
func VerifySweepColumns(m, d int, fam Family, sweeps int) error {
	sw, err := BuildSweep(d, fam)
	if err != nil {
		return err
	}
	ranges, err := BlockRanges(m, d)
	if err != nil {
		return err
	}
	st := NewState(d)
	for s := 0; s < sweeps; s++ {
		paired := make([]int, m*m)
		pairCols := func(ci, cj int) {
			a, b := ci, cj
			if a > b {
				a, b = b, a
			}
			paired[a*m+b]++
		}
		// Intra-block pairings, done once per sweep on whichever node
		// currently holds each block.
		for _, r := range ranges {
			for ci := r.Start; ci < r.End; ci++ {
				for cj := ci + 1; cj < r.End; cj++ {
					pairCols(ci, cj)
				}
			}
		}
		st.RunSweep(sw, s, func(step int, cur *State) {
			for p := 0; p < 1<<uint(d); p++ {
				blocks := cur.Node(p)
				ra, rb := ranges[blocks.A], ranges[blocks.B]
				for ci := ra.Start; ci < ra.End; ci++ {
					for cj := rb.Start; cj < rb.End; cj++ {
						pairCols(ci, cj)
					}
				}
			}
		})
		for a := 0; a < m; a++ {
			for b := a + 1; b < m; b++ {
				if paired[a*m+b] != 1 {
					return fmt.Errorf("ordering: m=%d d=%d sweep %d: columns (%d,%d) paired %d times",
						m, d, s, a, b, paired[a*m+b])
				}
			}
		}
	}
	return nil
}

// CCubeProperty confirms the schedule's transitions each use a single
// dimension valid for the cube — the property that makes the algorithm a
// CC-cube algorithm and communication pipelining applicable. It also checks
// the phase bookkeeping: phases appear in descending order d..1, phase e
// contributes exactly 2^e-1 exchange transitions followed by one division,
// and the sweep ends with the last transition.
func CCubeProperty(sw *Sweep) error {
	if sw.D == 0 {
		if len(sw.Transitions) != 0 {
			return fmt.Errorf("ordering: 0-cube sweep should have no transitions")
		}
		return nil
	}
	i := 0
	for e := sw.D; e >= 1; e-- {
		want := (1 << uint(e)) - 1
		for k := 0; k < want; k++ {
			tr := sw.Transitions[i]
			if tr.Kind != ExchangeTrans || tr.Phase != e {
				return fmt.Errorf("ordering: transition %d: got %v phase %d, want exchange phase %d", i, tr.Kind, tr.Phase, e)
			}
			if tr.Link < 0 || tr.Link >= e {
				return fmt.Errorf("ordering: transition %d: exchange link %d outside phase-%d subcube", i, tr.Link, e)
			}
			i++
		}
		tr := sw.Transitions[i]
		if tr.Kind != DivisionTrans || tr.Phase != e || tr.Link != e-1 {
			return fmt.Errorf("ordering: transition %d: got %v link %d, want division link %d", i, tr.Kind, tr.Link, e-1)
		}
		i++
	}
	tr := sw.Transitions[i]
	if tr.Kind != LastTrans || tr.Link != sw.D-1 {
		return fmt.Errorf("ordering: final transition is %v link %d, want last link %d", tr.Kind, tr.Link, sw.D-1)
	}
	if i+1 != len(sw.Transitions) {
		return fmt.Errorf("ordering: %d trailing transitions", len(sw.Transitions)-i-1)
	}
	return nil
}

// VerifyOrdering machine-checks that the family yields exact round-robin
// sweeps on a d-cube (block level, several consecutive sweeps) and that its
// schedule has the CC-cube property.
func VerifyOrdering(fam Family, d, sweeps int) error {
	sw, err := CachedSweep(d, fam)
	if err != nil {
		return err
	}
	if err := CCubeProperty(sw); err != nil {
		return err
	}
	st := NewState(d)
	for s := 0; s < sweeps; s++ {
		if err := VerifySweep(st, sw, s); err != nil {
			return err
		}
	}
	return nil
}
