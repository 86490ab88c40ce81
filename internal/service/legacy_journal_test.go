package service

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/frame"
	"repro/internal/store"
)

// testdata/legacy-journal holds a journal written before KindSubmitted
// spec blobs became frames: every spec in it is all-JSON. Its jobs, all
// on the emulated backend at d=1:
//
//	job-1  done, key "legacy-done"    16×16 random matrix, seed 7
//	job-2  in flight, no checkpoint   24×24 random matrix, seed 8,
//	                                  Tol 1e-300, MaxSweeps 400
//	job-3  queued                     16×16 explicit matrix (seed 9)
var legacySpecs = map[string]JobSpec{
	"job-1": {Matrix: randSym(16, 7), Dim: 1, Backend: "emulated"},
	"job-2": {Matrix: randSym(24, 8), Dim: 1, Backend: "emulated", Tol: 1e-300, MaxSweeps: 400},
	"job-3": {Matrix: randSym(16, 9), Dim: 1, Backend: "emulated"},
}

// copyLegacyJournal copies the fixture into a fresh directory (recovery
// compacts the journal in place).
func copyLegacyJournal(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "legacy-journal", "journal.jlog"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "journal.jlog"), data, 0o666); err != nil {
		t.Fatal(err)
	}
	return dir
}

func sameValues(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: value %d = %v, want %v (not bit-identical)", what, i, got[i], want[i])
		}
	}
}

// TestLegacyJournalReplays opens a journal of all-JSON specs with this
// build: the done job's result is served, the in-flight and queued jobs
// run on their journaled matrices bit for bit, and the compacted journal
// (legacy and framed specs side by side) replays again.
func TestLegacyJournalReplays(t *testing.T) {
	ctx := context.Background()
	control := map[string][]float64{}
	ref := New(Config{Workers: 1})
	for id, spec := range legacySpecs {
		j, err := ref.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := j.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		control[id] = res.Values
	}
	ref.Close()

	dir := copyLegacyJournal(t)
	st := openStore(t, dir)
	s := New(Config{Workers: 1, Store: st})
	for _, id := range []string{"job-1", "job-2", "job-3"} {
		j, ok := s.Job(id)
		if !ok {
			t.Fatalf("%s not recovered", id)
		}
		res, err := j.Wait(ctx)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		sameValues(t, id, res.Values, control[id])
	}
	if j, _ := s.Job("job-2"); j.Status().Restarts != 1 {
		t.Fatalf("in-flight job reports %d restarts, want 1", j.Status().Restarts)
	}
	if j, reused, err := s.SubmitKeyed(ctx, "legacy-done", legacySpecs["job-1"]); err != nil || !reused || j.ID() != "job-1" {
		t.Fatalf("legacy idempotency key: job %v reused=%v err=%v", j, reused, err)
	}
	// The queued job ran on the journaled matrix bit for bit: the same
	// matrix submitted fresh meets its fingerprint in the cache.
	hit, err := s.Submit(ctx, legacySpecs["job-3"])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hit.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if !hit.Status().CacheHit {
		t.Fatal("explicit matrix from the legacy journal did not fingerprint like the original")
	}
	s.Close()
	st.Close()

	// Second boot over the compacted journal, which now also holds the
	// framed spec of the cache-hit job.
	st2 := openStore(t, dir)
	defer st2.Close()
	framed := 0
	for _, rec := range st2.Records() {
		if rec.Kind == store.KindSubmitted && frame.Is(rec.Spec) {
			framed++
		}
	}
	if framed == 0 {
		t.Fatal("no framed spec in the journal after a submit")
	}
	s2 := New(Config{Workers: 1, Store: st2})
	defer s2.Close()
	for _, id := range []string{"job-1", "job-2", "job-3", hit.ID()} {
		j, ok := s2.Job(id)
		if !ok || j.State() != StateDone {
			t.Fatalf("%s not restored done on the second boot", id)
		}
	}
	j3, _ := s2.Job("job-3")
	r3, err := j3.Result()
	if err != nil {
		t.Fatal(err)
	}
	sameValues(t, "job-3 after second boot", r3.Values, control["job-3"])
}
