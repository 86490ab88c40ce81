package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// testdata/tuned-datadir is a data directory written by a build whose
// service ran tuned schedules. `jacobitool tune -shapes 48:2 -data DIR`
// left a tuned.jtun holding a pipelined BR plan for n=48, d=2; a service
// over DIR then ran two jobs, both with Dim 2 and every other field at its
// default, and the journal was copied right after job-2's submission was
// fsync'd:
//
//	job-1  done under the tuned plan   48×48 random matrix, seed 21
//	job-2  queued                      48×48 random matrix, seed 22
//
// Both journaled fingerprints were mixed with the plan's. The values that
// build returned for job-1 are in testdata/tuned-datadir-values.json. At
// this shape the plan's eigenvalues are bit-identical to the default
// ordering's (BR and permuted-BR agree up to d=2, and pipelining does not
// change the arithmetic); its modeled makespan is not, so that is what
// shows which plan a run used.
var tunedDataDirSpecs = map[string]JobSpec{
	"job-1": {Matrix: randSym(48, 21), Dim: 2},
	"job-2": {Matrix: randSym(48, 22), Dim: 2},
}

// TestTunedDataDirBoots opens that directory with this build, once as
// written and once with its tuned.jtun record rewritten as a CRC-valid
// record of another format version. Either way the log is ignored: the
// done job is served as journaled, the queued job runs its spec's default
// ordering, and a fresh submit of the tuned job's spec is solved afresh
// rather than served the tuned result.
func TestTunedDataDirBoots(t *testing.T) {
	ctx := context.Background()
	raw, err := os.ReadFile(filepath.Join("testdata", "tuned-datadir-values.json"))
	if err != nil {
		t.Fatal(err)
	}
	var parent map[string][]float64
	if err := json.Unmarshal(raw, &parent); err != nil {
		t.Fatal(err)
	}
	control := map[string]*Result{}
	ref := New(Config{Workers: 1})
	for id, spec := range tunedDataDirSpecs {
		j, err := ref.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := j.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		control[id] = res
	}
	ref.Close()

	journal, err := os.ReadFile(filepath.Join("testdata", "tuned-datadir", "journal.jlog"))
	if err != nil {
		t.Fatal(err)
	}
	tunedLog, err := os.ReadFile(filepath.Join("testdata", "tuned-datadir", "tuned.jtun"))
	if err != nil {
		t.Fatal(err)
	}
	// The log is "JTUN" u32(version), then frames of u32(len) u32(crc32c)
	// payload; a payload's first byte is its record version.
	skewed := append([]byte(nil), tunedLog...)
	payload := skewed[16:]
	payload[0]++
	binary.LittleEndian.PutUint32(skewed[12:], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))

	for _, tc := range []struct {
		name     string
		tunedLog []byte
	}{{"as-written", tunedLog}, {"record-version-skew", skewed}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "journal.jlog"), journal, 0o666); err != nil {
				t.Fatal(err)
			}
			logPath := filepath.Join(dir, "tuned.jtun")
			if err := os.WriteFile(logPath, tc.tunedLog, 0o666); err != nil {
				t.Fatal(err)
			}
			st := openStore(t, dir)
			defer st.Close()
			s := New(Config{Workers: 1, Store: st})
			defer s.Close()

			j1, ok := s.Job("job-1")
			if !ok || j1.State() != StateDone {
				t.Fatal("done job-1 not restored done")
			}
			r1, err := j1.Result()
			if err != nil {
				t.Fatal(err)
			}
			sameValues(t, "job-1", r1.Values, parent["job-1"])

			j2, ok := s.Job("job-2")
			if !ok {
				t.Fatal("queued job-2 not recovered")
			}
			r2, err := j2.Wait(ctx)
			if err != nil {
				t.Fatal(err)
			}
			sameValues(t, "job-2", r2.Values, control["job-2"].Values)
			if r2.Makespan != control["job-2"].Makespan {
				t.Fatalf("job-2 makespan %g, want the default plan's %g", r2.Makespan, control["job-2"].Makespan)
			}
			if st := j2.Status(); st.Ordering != "pbr" || st.Restarts != 0 {
				t.Fatalf("job-2 ran ordering %q after %d restarts, want pbr after 0", st.Ordering, st.Restarts)
			}

			fresh, err := s.Submit(ctx, tunedDataDirSpecs["job-1"])
			if err != nil {
				t.Fatal(err)
			}
			rf, err := fresh.Wait(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if fresh.Status().CacheHit {
				t.Fatal("fresh submit was served the tuned job's cached result")
			}
			sameValues(t, "fresh job-1 spec", rf.Values, control["job-1"].Values)
			if rf.Makespan != control["job-1"].Makespan {
				t.Fatalf("fresh job-1 spec makespan %g, want the default plan's %g", rf.Makespan, control["job-1"].Makespan)
			}

			if got, err := os.ReadFile(logPath); err != nil || !bytes.Equal(got, tc.tunedLog) {
				t.Fatalf("tuned.jtun touched at boot (err %v)", err)
			}
		})
	}
}
