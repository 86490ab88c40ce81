package engine

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"testing"

	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/ordering"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/reference_golden.json from the current code")

// goldenCase is one pinned reference-path solve: every result bit the
// emulated and analytic backends produce, recorded as hex Float64bits or
// FNV-1a checksums so any change to the reference numerics shows up as a
// diff of this file.
type goldenCase struct {
	Name        string   `json:"name"`
	Sweeps      int      `json:"sweeps"`
	Converged   bool     `json:"converged"`
	Rotations   int      `json:"rotations"`
	Values      []string `json:"values"`
	WorkingSum  string   `json:"working_fnv"`
	FactorSum   string   `json:"factor_fnv"`
	Messages    int      `json:"messages"`
	Elements    int      `json:"elements"`
	RawElements int      `json:"raw_elements"`
	ExchangeOps int      `json:"exchange_ops"`
	Makespan    string   `json:"makespan"`
}

func bitsHex(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

// checksum hashes the Float64bits of a matrix's entries in storage order.
func checksum(m *matrix.Dense) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range m.Data {
		b := math.Float64bits(v)
		for i := range buf {
			buf[i] = byte(b >> (8 * i))
		}
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenRun performs one converged solve and records it.
func goldenRun(t *testing.T, name, kind string, d int, pipelined bool, be ExecBackend) goldenCase {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(1900 + d)))
	var (
		a    *matrix.Dense
		prob *Problem
		err  error
	)
	if kind == "eigen" {
		a = matrix.RandomSymmetric(40, rng)
		prob, err = NewProblem(a, d, nil)
	} else {
		a = matrix.RandomDense(44, 36, rng)
		prob, err = NewSVDProblem(a, d)
	}
	if err != nil {
		t.Fatal(err)
	}
	prob.Family = ordering.NewPermutedBRFamily()
	prob.Pipelined = pipelined
	prob.PipelineTs, prob.PipelineTw = 1000, 100
	out, stats, err := prob.Run(be)
	if err != nil {
		t.Fatal(err)
	}
	fh := prob.factorHeight()
	w := matrix.NewDense(a.Rows, a.Cols)
	u := matrix.NewDense(fh, a.Cols)
	Gather(out.Blocks, w, u)
	var values []float64
	if kind == "eigen" {
		values = out.Eigen().Values
	} else {
		values = out.SVD().Values
	}
	gc := goldenCase{
		Name:        name,
		Sweeps:      out.Sweeps,
		Converged:   out.Converged,
		Rotations:   out.Rotations,
		WorkingSum:  checksum(w),
		FactorSum:   checksum(u),
		Messages:    stats.Messages,
		Elements:    stats.Elements,
		RawElements: stats.RawElements,
		ExchangeOps: stats.ExchangeOps,
		Makespan:    bitsHex(stats.Makespan),
	}
	for _, v := range values {
		gc.Values = append(gc.Values, bitsHex(v))
	}
	return gc
}

// TestReferenceGolden pins the reference path's absolute numerics: the
// eigenvalues and singular values bit for bit, checksums of the final
// working matrix and factor, the message and element counts and the modeled
// makespan of fixed emulated and analytic solves (eigen and SVD, plain and
// pipelined, d = 2..4). The backend bit-identity suites only compare
// backends with each other; this file catches a kernel change that moves
// every backend at once. Regenerate with -update only for an intended
// numerics change.
func TestReferenceGolden(t *testing.T) {
	const path = "testdata/reference_golden.json"
	var got []goldenCase
	for _, kind := range []string{"eigen", "svd"} {
		for d := 2; d <= 4; d++ {
			for _, pipelined := range []bool{false, true} {
				backends := []struct {
					name string
					be   ExecBackend
				}{
					{"emulated", &Emulated{Ports: machine.AllPort, Ts: 1000, Tw: 100, Tc: 1}},
					{"analytic", &Analytic{Ports: machine.AllPort, Ts: 1000, Tw: 100, Tc: 1}},
				}
				for _, b := range backends {
					name := fmt.Sprintf("%s/d%d/pipelined=%t/%s", kind, d, pipelined, b.name)
					got = append(got, goldenRun(t, name, kind, d, pipelined, b.be))
				}
			}
		}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(got); err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenCase
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d cases, golden file has %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		gj, _ := json.Marshal(g)
		wj, _ := json.Marshal(w)
		if !bytes.Equal(gj, wj) {
			t.Errorf("case %s differs from %s:\n got  %s\n want %s", w.Name, path, gj, wj)
		}
	}
}
