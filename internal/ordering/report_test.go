package ordering

import "testing"

func TestLinkSequence(t *testing.T) {
	seq, err := LinkSequence(NewBRFamily(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if seq.String() != "<010201030102010>" {
		t.Errorf("BR e=4: %s", seq.String())
	}
	if _, err := LinkSequence(NewBRFamily(), 0); err == nil {
		t.Error("e=0 accepted")
	}
	if _, err := LinkSequence(NewBRFamily(), 99); err == nil {
		t.Error("e=99 accepted")
	}
}

func TestAnalyzeSequence(t *testing.T) {
	rep, err := AnalyzeSequence(NewPermutedBRFamily(), 9)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Valid {
		t.Error("permuted-BR e=9 invalid")
	}
	if rep.Alpha != 68 || rep.LowerBound != 57 {
		t.Errorf("alpha=%d lb=%d", rep.Alpha, rep.LowerBound)
	}
	if rep.Length != 511 {
		t.Errorf("length=%d", rep.Length)
	}
	rep4, err := AnalyzeSequence(NewDegree4Family(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if rep4.Degree != 4 {
		t.Errorf("degree-4 ordering has degree %d", rep4.Degree)
	}
}

func TestTable1(t *testing.T) {
	rows, err := Table1(7, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.Valid {
			t.Errorf("e=%d invalid", r.E)
		}
		if r.Ratio < 1 || r.Ratio > 1.45 {
			t.Errorf("e=%d ratio %g", r.E, r.Ratio)
		}
	}
	if _, err := Table1(5, 3); err == nil {
		t.Error("bad range accepted")
	}
}
