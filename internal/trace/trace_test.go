package trace

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/ordering"
)

func TestCollectorRecordsAllEvents(t *testing.T) {
	col := NewCollector()
	m, err := machine.New(machine.Config{Dim: 2, Ts: 10, Tw: 1, OnEvent: col.Record})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := m.Run(func(ctx *machine.NodeCtx) error {
		for dim := 0; dim < ctx.Dim(); dim++ {
			if _, err := ctx.Exchange(dim, make([]float64, 3)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if col.Len() != stats.ExchangeOps {
		t.Errorf("collected %d events, machine counted %d ops", col.Len(), stats.ExchangeOps)
	}
	sum := col.Summarize(2)
	if sum.Events != 8 { // 4 nodes x 2 exchanges
		t.Errorf("events = %d", sum.Events)
	}
	if sum.Makespan != stats.Makespan {
		t.Errorf("trace makespan %g != stats %g", sum.Makespan, stats.Makespan)
	}
	if sum.DimMessages[0] != 4 || sum.DimMessages[1] != 4 {
		t.Errorf("dim messages %v", sum.DimMessages)
	}
	if sum.MaxDimShare != 0.5 {
		t.Errorf("max share %g", sum.MaxDimShare)
	}
}

func TestEventsSortedAndReset(t *testing.T) {
	col := NewCollector()
	col.Record(machine.Event{Node: 1, Start: 5, End: 6})
	col.Record(machine.Event{Node: 0, Start: 2, End: 3})
	col.Record(machine.Event{Node: 0, Start: 5, End: 7})
	evs := col.Events()
	if evs[0].Start != 2 || evs[1].Node != 0 || evs[2].Node != 1 {
		t.Errorf("events not sorted: %+v", evs)
	}
	col.Reset()
	if col.Len() != 0 {
		t.Error("reset did not clear")
	}
}

// Traced distributed solves confirm the balance claim dynamically: the BR
// ordering funnels roughly half of all messages through one dimension,
// permuted-BR spreads them far more evenly.
func TestTraceShowsOrderingBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := matrix.RandomSymmetric(32, rng)
	share := func(fam ordering.Family) float64 {
		prob, err := engine.NewProblem(a, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		prob.Family = fam
		prob.FixedSweeps = 1
		col := NewCollector()
		if _, _, err := prob.Run(&engine.Emulated{Ts: 1000, Tw: 100, OnEvent: col.Record}); err != nil {
			t.Fatal(err)
		}
		return col.Summarize(4).MaxDimShare
	}
	brShare := share(ordering.NewBRFamily())
	pbrShare := share(ordering.NewPermutedBRFamily())
	if brShare < 0.40 {
		t.Errorf("BR max dim share %.2f, expected ~0.5", brShare)
	}
	if pbrShare >= brShare {
		t.Errorf("permuted-BR share %.2f not below BR's %.2f", pbrShare, brShare)
	}
	if pbrShare > 0.40 {
		t.Errorf("permuted-BR max dim share %.2f, expected near 1/d = 0.25", pbrShare)
	}
}

func TestFormatDimShares(t *testing.T) {
	s := &Summary{Events: 4, DimShare: []float64{0.75, 0.25}, DimMessages: []int{3, 1}}
	out := s.FormatDimShares()
	if !strings.Contains(out, "dim  0") || !strings.Contains(out, "75.0%") {
		t.Errorf("format output:\n%s", out)
	}
}

func TestTimeline(t *testing.T) {
	evs := []machine.Event{
		{Node: 0, Start: 0, End: 50},
		{Node: 1, Start: 50, End: 100},
	}
	out := Timeline(evs, 2, 20)
	if !strings.Contains(out, "node  0") || !strings.Contains(out, "node  1") {
		t.Errorf("timeline output:\n%s", out)
	}
	if Timeline(nil, 2, 20) != "(empty trace)\n" {
		t.Error("empty trace rendering")
	}
}
