package tuner

import (
	"reflect"
	"testing"
)

func testShape() Shape { return Shape{N: 128, Dim: 3} }

func TestSearchWinnerBeatsOrMatchesBaseline(t *testing.T) {
	rep, err := Search(testShape(), Params{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Winner == nil {
		t.Fatal("no winner")
	}
	w := rep.Winner
	if w.TunedMakespan > w.BaselineMakespan {
		t.Fatalf("winner makespan %g exceeds baseline %g", w.TunedMakespan, w.BaselineMakespan)
	}
	if w.BaselineMakespan != rep.BaselineMakespan {
		t.Fatalf("winner baseline %g != report baseline %g", w.BaselineMakespan, rep.BaselineMakespan)
	}
	// With the paper's Ts=1000/Tw=100, pipelining strictly beats the
	// unpipelined CC-cube baseline; a tuner that cannot find that gain is
	// broken.
	if w.TunedMakespan >= w.BaselineMakespan {
		t.Fatalf("expected a strict analytic gain, got winner %+v", w)
	}
	if len(rep.Scored) < 5 {
		t.Fatalf("scored only %d candidates: %+v", len(rep.Scored), rep.Scored)
	}
	for _, sc := range rep.Scored {
		if sc.Rejected != "" {
			t.Errorf("candidate %s rejected: %s", sc.Name, sc.Rejected)
		}
	}
}

func TestSearchDeterministic(t *testing.T) {
	a, err := Search(testShape(), Params{}, Options{Random: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Search(testShape(), Params{}, Options{Random: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Winner, b.Winner) {
		t.Fatalf("winners differ across identical searches: %+v vs %+v", a.Winner, b.Winner)
	}
	if a.Winner.TunedMakespan != b.Winner.TunedMakespan {
		t.Fatalf("makespans differ: %g vs %g", a.Winner.TunedMakespan, b.Winner.TunedMakespan)
	}
}

func TestSearchRejectsBadShapes(t *testing.T) {
	for _, sh := range []Shape{
		{N: 8, Dim: 3},                       // too small for 16 blocks
		{N: 128, Dim: 0},                     // no cube
		{N: 128, Dim: 3, Ports: -1},          // negative ports
		{N: 1 << 20, Dim: 17},                // dimension out of range
		{N: 128, Dim: 3, Topology: "z-cube"}, // not modeled yet
	} {
		if _, err := Search(sh, Params{}, Options{Random: 0}); err == nil {
			t.Errorf("shape %+v: expected error", sh)
		}
	}
}
