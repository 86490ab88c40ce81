// Package tuner is the ordering auto-tuner (DESIGN.md §14): it searches
// Jacobi ordering families and sequence transforms per job shape
// (n, d, topology, ports), using the analytic execution backend — which
// replays the paper's timing model in microseconds — as the search oracle.
// It is an offline research tool behind `jacobitool tune` (and the tuned
// makespan line of `jacobitool bench`): nothing it finds changes what the
// batch-solve service runs.
//
// Contract (enforced by Search and the conformance suite):
//
//   - every candidate is a legal Jacobi ordering — each sweep covers all
//     column pairs exactly once (ordering.VerifySweepColumns);
//   - every scored makespan is validated against the closed-form cost
//     model (costmodel.BaselineSweepCost / PipelinedSweepCost);
//   - the winner's analytic makespan is ≤ the baseline ordering's — the
//     baseline itself is always candidate zero, so tuning can only help;
//   - a winner changes the rotation order, not the spectrum: its converged
//     eigenvalues agree with the baseline ordering's.
package tuner

import (
	"fmt"

	"repro/internal/ordering"
)

// TopologyHypercube is the only modeled network today; the shape keeps the
// field so Z-cube and LACIN variants (ROADMAP item 2) slot in.
const TopologyHypercube = "hypercube"

// Shape identifies a class of jobs the tuner optimizes as one unit: matrix
// size, cube dimension, network topology, and the port model.
type Shape struct {
	N   int
	Dim int
	// Ports is the number of simultaneously usable links per node
	// (0 = all-port, 1 = one-port), mirroring costmodel.Params.Ports.
	Ports int
	// Topology names the modeled network; empty means TopologyHypercube.
	Topology string
}

// normalize fills defaulted fields.
func (sh Shape) normalize() Shape {
	if sh.Topology == "" {
		sh.Topology = TopologyHypercube
	}
	return sh
}

// Key is the canonical shape key, e.g. "hypercube/n512/d3/p0".
func (sh Shape) Key() string {
	sh = sh.normalize()
	return fmt.Sprintf("%s/n%d/d%d/p%d", sh.Topology, sh.N, sh.Dim, sh.Ports)
}

// validate rejects shapes the engine cannot run.
func (sh Shape) validate() error {
	sh = sh.normalize()
	if sh.Dim < 1 || sh.Dim > 16 {
		return fmt.Errorf("tuner: shape dimension %d out of range [1,16]", sh.Dim)
	}
	if minN := 2 << uint(sh.Dim); sh.N < minN {
		return fmt.Errorf("tuner: shape size %d below the %d blocks of a %d-cube", sh.N, minN, sh.Dim)
	}
	if sh.Ports < 0 || sh.Ports > 64 {
		return fmt.Errorf("tuner: shape port count %d out of range", sh.Ports)
	}
	if sh.Topology != TopologyHypercube {
		return fmt.Errorf("tuner: unknown topology %q", sh.Topology)
	}
	return nil
}

// Schedule is one tuned execution plan for a shape: the winning ordering
// (canonical family or serialized phases) plus its pipelining plan, and the
// analytic makespans that justified it.
type Schedule struct {
	Shape Shape
	// FamilyName is the winner's display name.
	FamilyName string
	// Canonical is the winner's CLI name (ordering.FamilyByName) when it is
	// one of the paper families; empty for transform-derived winners.
	Canonical string
	// Phases holds the serialized phase sequences (sequence.ParseSeq
	// notation, keyed by phase dimension) for non-canonical winners.
	Phases map[int]string
	// Pipelined / PipelineQ is the execution plan (PipelineQ 0 lets the
	// engine pick the cost-model optimum per phase).
	Pipelined bool
	PipelineQ int
	// BaselineMakespan and TunedMakespan are analytic one-sweep makespans
	// for the shape's baseline ordering and this schedule.
	BaselineMakespan float64
	TunedMakespan    float64
	// Candidates is how many legal candidates the search scored.
	Candidates int
}

// Family materializes the runnable ordering family: the canonical family by
// name, or the serialized phases parsed and validated through
// ordering.FamilyFromSerialized. The engine executes either identically to
// a compile-time family.
func (sc *Schedule) Family() (ordering.Family, error) {
	if sc.Canonical != "" {
		return ordering.FamilyByName(sc.Canonical)
	}
	return ordering.FamilyFromSerialized(sc.FamilyName, sc.Phases)
}
