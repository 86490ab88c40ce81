package jacobi

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/ordering"
)

// The cross-backend conformance suite: every solver flavor (cyclic
// sequential, schedule/block sequential, parallel, pipelined, SVD) crossed
// with every execution backend on seeded inputs. Backends running the
// reference kernel path (emulated, analytic, and multicore opted into
// ReferenceKernels) must be bit-identical across backends and to the
// sequential central replay; the production multicore backend runs the
// fused kernels (internal/kernel) and must stay within the documented ulp
// budget of that class. The emulated and analytic backends must agree
// exactly on message counts and raw payload elements (the emulated
// machine's serialized totals additionally carry encoding headers). CI
// runs these tests under -race.

// confBackend pairs a backend instance with its conformance class: exact
// backends run the reference kernels and join the bit-identical
// equivalence class; the rest are held to the fused-path ulp budget.
type confBackend struct {
	be    engine.ExecBackend
	exact bool
}

// conformanceBackends builds one instance of each backend configuration
// with the paper's Figure 2 machine parameters.
func conformanceBackends() map[string]confBackend {
	return map[string]confBackend{
		"emulated":      {&engine.Emulated{Ts: 1000, Tw: 100}, true},
		"multicore-ref": {&engine.Multicore{ReferenceKernels: true}, true},
		"analytic":      {&engine.Analytic{Ts: 1000, Tw: 100}, true},
		"multicore":     {&engine.Multicore{}, false},
	}
}

// fusedValueTol is the integration-level budget for fused-kernel results
// against the reference path: the kernel-level reassociation bound
// (internal/kernel, ~n·eps per Gram entry) compounded over a converged
// solve's rotations stays orders of magnitude below it.
const fusedValueTol = 1e-8

func valuesClose(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	for k := range want {
		if rel := math.Abs(got[k]-want[k]) / (1 + math.Abs(want[k])); rel > fusedValueTol {
			t.Errorf("%s: value %d = %.17g, want %.17g (rel %.2e)", label, k, got[k], want[k], rel)
		}
	}
}

func valuesBitIdentical(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	for k := range want {
		if got[k] != want[k] {
			t.Errorf("%s: value %d = %.17g, want %.17g", label, k, got[k], want[k])
		}
	}
}

// TestConformanceEigenMatrix crosses the eigensolver flavors with the
// backends for two ordering families.
func TestConformanceEigenMatrix(t *testing.T) {
	const n, d = 32, 2
	for _, famName := range []string{"pbr", "d4"} {
		fam, err := ordering.FamilyByName(famName)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(famName, func(t *testing.T) {
			rng := rand.New(rand.NewSource(4242))
			a := matrix.RandomSymmetric(n, rng)

			// Sequential references: the central schedule replay (the block
			// algorithm run on one node) and the ordering-independent cyclic
			// loop.
			ref := central(t, a, d, fam, Options{})
			cyc, err := SolveCyclic(a, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for k := range ref.Values {
				if rel := math.Abs(ref.Values[k]-cyc.Values[k]) / (1 + math.Abs(ref.Values[k])); rel > 1e-8 {
					t.Errorf("cyclic vs schedule eigenvalue %d: %.12g vs %.12g", k, cyc.Values[k], ref.Values[k])
				}
			}

			type flavor struct {
				name    string
				problem func() *engine.Problem
			}
			flavors := []flavor{
				{"parallel", func() *engine.Problem { return problem(t, a, d, fam, Options{}) }},
				// Q = 1 pipelining degenerates to the unpipelined iteration
				// order, so it stays in the bit-identical equivalence class.
				{"pipelined-q1", func() *engine.Problem { return pipelined(problem(t, a, d, fam, Options{}), 1) }},
			}
			for _, fl := range flavors {
				t.Run(fl.name, func(t *testing.T) {
					stats := map[string]*machine.RunStats{}
					for beName, cb := range conformanceBackends() {
						res, st := run(t, fl.problem(), cb.be)
						label := fmt.Sprintf("%s/%s", fl.name, beName)
						if cb.exact {
							valuesBitIdentical(t, label, res.Values, ref.Values)
							if res.Sweeps != ref.Sweeps || res.Rotations != ref.Rotations {
								t.Errorf("%s: %d sweeps/%d rotations, reference %d/%d",
									label, res.Sweeps, res.Rotations, ref.Sweeps, ref.Rotations)
							}
							stats[beName] = st
						} else {
							// Fused path: values within the ulp budget; sweep and
							// rotation counts are not pinned across kernel paths
							// (skip-threshold sensitivity), so neither are the
							// communication totals that scale with them.
							valuesClose(t, label, res.Values, ref.Values)
							if !res.Converged {
								t.Errorf("%s: did not converge", label)
							}
							if st.Elements != st.RawElements {
								t.Errorf("%s: shared-memory backend must count raw elements (%d vs %d)",
									label, st.Elements, st.RawElements)
							}
						}
					}
					assertCommConformance(t, stats)
				})
			}
		})
	}
}

// assertCommConformance checks the communication bookkeeping across the
// reference-kernel backends of one flavor run: identical message counts
// everywhere, identical raw payload elements between emulated and analytic
// (and reference-kernel multicore, which counts raw by construction), and
// the emulated machine's serialized total strictly above the raw total
// (headers).
func assertCommConformance(t *testing.T, stats map[string]*machine.RunStats) {
	t.Helper()
	emu, ana, mc := stats["emulated"], stats["analytic"], stats["multicore-ref"]
	if emu.Messages != ana.Messages || emu.Messages != mc.Messages {
		t.Errorf("message counts diverge: emulated %d, analytic %d, multicore %d",
			emu.Messages, ana.Messages, mc.Messages)
	}
	if emu.RawElements != ana.Elements {
		t.Errorf("raw payload elements diverge: emulated %d, analytic %d", emu.RawElements, ana.Elements)
	}
	if ana.Elements != ana.RawElements || mc.Elements != mc.RawElements {
		t.Errorf("shared-memory backends must count raw elements (analytic %d/%d, multicore %d/%d)",
			ana.Elements, ana.RawElements, mc.Elements, mc.RawElements)
	}
	if ana.Elements != mc.Elements {
		t.Errorf("analytic and multicore element counts diverge: %d vs %d", ana.Elements, mc.Elements)
	}
	if emu.Elements <= emu.RawElements {
		t.Errorf("emulated serialized elements %d should exceed raw %d (encoding headers)",
			emu.Elements, emu.RawElements)
	}
}

// TestConformanceSVDMatrix crosses the distributed SVD with every backend
// against the sequential central replay, rectangular blocks included.
func TestConformanceSVDMatrix(t *testing.T) {
	const rows, cols, d = 32, 16, 2
	rng := rand.New(rand.NewSource(777))
	a := matrix.RandomDense(rows, cols, rng)
	fam := ordering.NewPermutedBRFamily()

	ref, err := solveSVD(t, a, d, fam, Options{})
	if err != nil {
		t.Fatal(err)
	}
	stats := map[string]*machine.RunStats{}
	for beName, cb := range conformanceBackends() {
		p, err := engine.NewSVDProblem(a, d)
		if err != nil {
			t.Fatal(err)
		}
		p.Family = fam
		out, st, err := p.Run(cb.be)
		if err != nil {
			t.Fatalf("%s: %v", beName, err)
		}
		res := out.SVD()
		label := "svd/" + beName
		if cb.exact {
			valuesBitIdentical(t, label, res.Values, ref.Values)
			if res.Sweeps != ref.Sweeps || res.Rotations != ref.Rotations {
				t.Errorf("%s: %d sweeps/%d rotations, reference %d/%d",
					label, res.Sweeps, res.Rotations, ref.Sweeps, ref.Rotations)
			}
			stats[beName] = st
		} else {
			valuesClose(t, label, res.Values, ref.Values)
		}
		if rec := res.ReconstructionError(a); rec > 1e-10 {
			t.Errorf("%s: reconstruction error %.2e", label, rec)
		}
	}
	assertCommConformance(t, stats)
}

// TestConformanceFixedSweepCounts: with a fixed sweep budget every flavor
// and backend performs the identical number of rotations — the engine's
// rotation order is an invariant of the substrate, not just the converged
// result.
func TestConformanceFixedSweepCounts(t *testing.T) {
	const n, d, sweeps = 24, 1, 3
	rng := rand.New(rand.NewSource(31))
	a := matrix.RandomSymmetric(n, rng)
	fam := ordering.NewBRFamily()
	var wantRot int
	for beName, cb := range conformanceBackends() {
		p := problem(t, a, d, fam, Options{})
		p.FixedSweeps = sweeps
		res, _ := run(t, p, cb.be)
		if res.Sweeps != sweeps {
			t.Errorf("%s: ran %d sweeps, want %d", beName, res.Sweeps, sweeps)
		}
		// A short fixed-sweep run stays far from the skip threshold, so even
		// the fused path must rotate every visited pair: counts agree across
		// all kernel paths here.
		if wantRot == 0 {
			wantRot = res.Rotations
		} else if res.Rotations != wantRot {
			t.Errorf("%s: %d rotations, others %d", beName, res.Rotations, wantRot)
		}
	}
}

// TestConformanceAnalyticModel: the analytic backend's makespan equals the
// closed-form per-sweep baseline cost exactly, for a spread of problem
// shapes — the per-job guarantee the batch service's cost-only queries
// rely on.
func TestConformanceAnalyticModel(t *testing.T) {
	cases := []struct{ n, d, sweeps int }{
		{32, 1, 1},
		{32, 2, 2},
		{64, 2, 1},
		{64, 3, 2},
		{128, 3, 1},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("n=%d_d=%d_s=%d", tc.n, tc.d, tc.sweeps), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.n*100 + tc.d)))
			a := matrix.RandomSymmetric(tc.n, rng)
			p := problem(t, a, tc.d, ordering.NewBRFamily(), Options{})
			p.FixedSweeps = tc.sweeps
			_, stats := run(t, p, &engine.Analytic{Ts: 1000, Tw: 100})
			want := float64(tc.sweeps) * costmodel.BaselineSweepCost(tc.d, costmodel.Params{M: float64(tc.n), Ts: 1000, Tw: 100})
			if rel := math.Abs(stats.Makespan-want) / want; rel > 1e-9 {
				t.Errorf("analytic makespan %.3f vs closed form %.3f (rel %.2e)", stats.Makespan, want, rel)
			}
		})
	}
}
