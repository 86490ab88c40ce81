package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/jacobi"
)

var update = flag.Bool("update", false, "recompute testdata/anchor-n512.json with jacobi.SolveTwoSided (takes seconds)")

// TestAnchorGolden checks the committed solve-large anchor values, or with
// -update recomputes them.
func TestAnchorGolden(t *testing.T) {
	path := filepath.Join("testdata", "anchor-n512.json")
	if *update {
		r, err := jacobi.SolveTwoSided(randomMatrix(anchorN, anchorSeed), jacobi.Options{})
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(golden{N: anchorN, Seed: anchorSeed, Values: r.Values})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var g golden
	if err := json.Unmarshal(data, &g); err != nil {
		t.Fatal(err)
	}
	if g.N != anchorN || g.Seed != anchorSeed || len(g.Values) != anchorN || !sort.Float64sAreSorted(g.Values) {
		t.Fatalf("anchor file holds n=%d seed=%d with %d values", g.N, g.Seed, len(g.Values))
	}
}

// planHash hashes the first n jobs of a workload's sequence for a seed:
// every input parameter and arrival gap, without the matrix payloads.
func planHash(w *workload, seed int64, n int) uint64 {
	h := fnv.New64a()
	for i := 0; i < n; i++ {
		j := w.job(seed, i)
		s := j.spec
		fmt.Fprintf(h, "%d n=%d seed=%d explicit=%v d=%d o=%s b=%s pipe=%v oneport=%v fixed=%d trace=%v tenant=%s prio=%d hot=%d slow=%v gap=%d\n",
			j.idx, j.n, j.mseed, j.explicit, s.Dim, s.Ordering, s.Backend, s.Pipelined, s.OnePort, s.FixedSweeps, s.Trace,
			s.Tenant, s.Priority, j.hot, j.slow, j.gap)
	}
	return h.Sum64()
}

// TestSequenceDeterministic: a workload's input sequence, arrival gaps
// included, is a function of the seed alone.
func TestSequenceDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, b, c := planHash(w, 7, 400), planHash(w, 7, 400), planHash(w, 8, 400)
		if a != b {
			t.Errorf("%s: two sequences at seed 7 differ (%x, %x)", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 give the same sequence", w.name)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json this test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestWorkloadsEmitEveryMetric runs every workload briefly, traced, and
// checks that it reports every metric BENCHMARK.json names, with its unit,
// and that every result passed its checks.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(bf.Workloads), len(workloads))
	}
	work := t.TempDir()
	for _, wf := range bf.Workloads {
		t.Run(wf.Name, func(t *testing.T) {
			w := workloadByName(wf.Name)
			if w == nil {
				t.Fatalf("no workload %q", wf.Name)
			}
			o := options{workload: w.name, seed: 3, seconds: 25, scale: 0.02, trace: 1, root: "..", work: work}
			rep, err := runWorkload(o, w, testWriter{t})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Attempted == 0 {
				t.Errorf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
			}
			for _, m := range bf.EndToEnd {
				if v, ok := rep.endToEnd[m.Name]; !ok || v.Unit != m.Unit {
					t.Errorf("end-to-end metric %s: got %+v (present %v), want unit %s", m.Name, v, ok, m.Unit)
				}
			}
			for _, m := range bf.PerLayer {
				if v, ok := rep.Metrics[m.Name]; !ok || v.Unit != m.Unit {
					t.Errorf("per-layer metric %s: got %+v (present %v), want unit %s", m.Name, v, ok, m.Unit)
				}
			}
			if len(rep.endToEnd) != len(bf.EndToEnd) || len(rep.Metrics) != len(bf.PerLayer) {
				t.Errorf("reported %d end-to-end and %d per-layer metrics, BENCHMARK.json lists %d and %d",
					len(rep.endToEnd), len(rep.Metrics), len(bf.EndToEnd), len(bf.PerLayer))
			}
		})
	}
}

// testWriter sends the benchmark's diagnostics to the test log.
type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(string(p))
	return len(p), nil
}
