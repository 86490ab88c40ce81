package service

import (
	"context"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/store"
)

var update = flag.Bool("update", false, "rewrite the testdata/illegal-journal fixtures")

// illegalSpec is the job every illegal-journal row journals (a second
// spec, labeled "second", stands in for the duplicate submission).
func illegalSpec(label string) JobSpec {
	return JobSpec{Matrix: randSym(16, 71), Dim: 1, Backend: BackendEmulated, Label: label}.withDefaults()
}

// illegalResult is the result the fixtures journal for job-1.
var illegalResult = &Result{Backend: BackendEmulated, Values: []float64{1, 2, 3}, Sweeps: 1, Converged: true}

// illegalJournals are the rows of testdata/illegal-journal: each journal
// holds one job, job-1, whose records break the lifecycle table once. The
// fixtures are written through store.Append, in the unchanged format;
// `go test ./internal/service -run TestIllegalJournalReplays -update`
// rewrites them.
func illegalJournals(t *testing.T) map[string][]store.Record {
	submitted := func(key, label string) store.Record {
		spec := illegalSpec(label)
		blob, err := encodeSpecBlob(spec)
		if err != nil {
			t.Fatal(err)
		}
		return store.Record{Kind: store.KindSubmitted, ID: "job-1", Key: key, Backend: BackendEmulated,
			Fp: spec.fingerprint(BackendEmulated), Spec: blob}
	}
	raw, err := json.Marshal(illegalResult)
	if err != nil {
		t.Fatal(err)
	}
	started := store.Record{Kind: store.KindStarted, ID: "job-1"}
	done := store.Record{Kind: store.KindFinished, ID: "job-1", State: string(StateDone), Result: raw}
	return map[string][]store.Record{
		"two-finished": {submitted("first", "first"), started, done,
			{Kind: store.KindFinished, ID: "job-1", State: string(StateFailed), Err: "second terminal"}},
		"finished-before-submitted": {done, submitted("first", "first")},
		"started-after-finished": {submitted("first", "first"),
			{Kind: store.KindFinished, ID: "job-1", State: string(StateCanceled), Err: "canceled by its owner"}, started},
		"submitted-twice": {submitted("first", "first"), submitted("second", "second"), done},
	}
}

// bootCapturingStderr opens a service over a copy of a fixture journal and
// returns it with what recovery wrote to stderr.
func bootCapturingStderr(t *testing.T, row string) (*Service, *store.Store, string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "illegal-journal", row, "journal.jlog"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "journal.jlog"), data, 0o666); err != nil {
		t.Fatal(err)
	}
	st := openStore(t, dir)
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stderr
	os.Stderr = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	s := New(Config{Workers: 1, Store: st})
	os.Stderr = saved
	w.Close()
	return s, st, <-out
}

// TestIllegalJournalReplays boots each testdata/illegal-journal row: the
// boot succeeds, recovery names the skipped record on stderr, and the job
// restores as the first legal records left it.
func TestIllegalJournalReplays(t *testing.T) {
	rows := illegalJournals(t)
	if *update {
		for row, recs := range rows {
			dir := filepath.Join("testdata", "illegal-journal", row)
			if err := os.RemoveAll(dir); err != nil {
				t.Fatal(err)
			}
			st := openStore(t, dir)
			for _, rec := range recs {
				if err := st.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			st.Close()
			if err := os.RemoveAll(filepath.Join(dir, "checkpoints")); err != nil {
				t.Fatal(err)
			}
		}
	}
	ctx := context.Background()
	for row, skipped := range map[string]string{
		"two-finished":              "job job-1: finished record skipped (job is done)",
		"finished-before-submitted": "job job-1: finished record skipped (job is unsubmitted)",
		"started-after-finished":    "job job-1: started record skipped (job is canceled)",
		"submitted-twice":           "job job-1: submitted record skipped (job is queued)",
	} {
		t.Run(row, func(t *testing.T) {
			s, st, stderr := bootCapturingStderr(t, row)
			defer st.Close()
			defer s.Close()
			j, ok := s.Job("job-1")
			if !ok {
				t.Fatal("job-1 not restored")
			}
			res, err := j.Wait(ctx)
			switch row {
			case "two-finished", "submitted-twice":
				if err != nil || !sameSeq(res.Values, illegalResult.Values) {
					t.Fatalf("restored %v, %v; want the first finished record's result", res, err)
				}
			case "finished-before-submitted":
				// The early finished record is ignored: the job runs.
				if err != nil || sameSeq(res.Values, illegalResult.Values) || j.Status().Restarts != 0 {
					t.Fatalf("restored %v, %v, %d restarts; want a fresh run", res, err, j.Status().Restarts)
				}
			case "started-after-finished":
				if j.State() != StateCanceled || err == nil || err.Error() != "canceled by its owner" {
					t.Fatalf("restored %s, %v; want the journaled cancel", j.State(), err)
				}
			}
			if row == "submitted-twice" {
				if j.Spec().Label != "first" {
					t.Fatalf("restored spec labeled %q, want the first submission's", j.Spec().Label)
				}
				if _, reused, _ := s.SubmitKeyed(ctx, "first", illegalSpec("")); !reused {
					t.Fatal("the first submission's key does not name job-1")
				}
				if again, reused, _ := s.SubmitKeyed(ctx, "second", illegalSpec("")); reused {
					t.Fatalf("the skipped submission's key names %s", again.ID())
				}
			}
			if !strings.Contains(stderr, "service: recovery: "+skipped) {
				t.Errorf("stderr does not name the skipped record %q:\n%s", skipped, stderr)
			}
		})
	}
}
