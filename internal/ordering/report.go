package ordering

import (
	"fmt"

	"repro/internal/sequence"
)

// LinkSequence returns the link sequence D_e the family uses for exchange
// phase e, for e in [1, 20] (D_e has 2^e - 1 links).
func LinkSequence(fam Family, e int) (sequence.Seq, error) {
	if e < 1 || e > 20 {
		return nil, fmt.Errorf("ordering: exchange phase %d out of range [1,20]", e)
	}
	return fam.Phase(e), nil
}

// SequenceReport summarizes the paper's quality metrics for one D_e.
type SequenceReport struct {
	Family     string // family name
	E          int
	Length     int
	Alpha      int     // max repetitions of one link (deep-pipelining metric)
	LowerBound int     // ceil((2^e-1)/e)
	Ratio      float64 // Alpha / LowerBound
	Degree     int     // window-diversity metric (shallow-pipelining metric)
	Valid      bool    // Hamiltonian-path property, machine-checked
}

// AnalyzeSequence computes the report for the family's D_e.
func AnalyzeSequence(fam Family, e int) (*SequenceReport, error) {
	seq, err := LinkSequence(fam, e)
	if err != nil {
		return nil, err
	}
	lb := sequence.LowerBoundAlpha(e)
	rep := &SequenceReport{
		Family:     fam.Name(),
		E:          e,
		Length:     len(seq),
		Alpha:      seq.Alpha(),
		LowerBound: lb,
		Degree:     seq.Degree(),
		Valid:      sequence.IsESequence(seq, e),
	}
	if lb > 0 {
		rep.Ratio = float64(rep.Alpha) / float64(lb)
	}
	return rep, nil
}

// Table1 regenerates the paper's Table 1: α of the permuted-BR sequences
// against the lower bound for e in [from, to].
func Table1(from, to int) ([]SequenceReport, error) {
	if from < 1 || to < from {
		return nil, fmt.Errorf("ordering: bad range [%d,%d]", from, to)
	}
	fam := NewPermutedBRFamily()
	out := make([]SequenceReport, 0, to-from+1)
	for e := from; e <= to; e++ {
		rep, err := AnalyzeSequence(fam, e)
		if err != nil {
			return nil, err
		}
		out = append(out, *rep)
	}
	return out, nil
}
