// The conformance suite: every Client implementation must behave
// identically across submit, wait, cancel, status, result, events,
// listing and metrics — the guarantee that lets a consumer switch between
// the in-process pool and a remote server with one flag. The suite runs
// against Local and against HTTP backed by an httptest server mounting
// the real /api/v2 handler.
package client_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/client"
	"repro/internal/httpapi"
	"repro/internal/service"
)

// factory builds one Client implementation for a subtest, with cleanup
// registered on t.
type factory struct {
	name string
	mk   func(t *testing.T, workers int) client.Client
}

func factories() []factory {
	return []factory{
		{"Local", func(t *testing.T, workers int) client.Client {
			c, err := client.NewLocal(client.LocalConfig{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			return c
		}},
		{"HTTP", func(t *testing.T, workers int) client.Client {
			svc := service.New(service.Config{Workers: workers})
			srv := httptest.NewServer(httpapi.NewHandler(svc))
			c, err := client.NewHTTP(srv.URL)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() {
				c.Close()
				srv.Close()
				svc.Close()
			})
			return c
		}},
	}
}

// eachClient runs fn once per implementation.
func eachClient(t *testing.T, workers int, fn func(t *testing.T, c client.Client)) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			fn(t, f.mk(t, workers))
		})
	}
}

// TestConformanceSubmitWaitResult: the basic lifecycle — submit, wait,
// result, status — produces the same observable outcome on both
// transports.
func TestConformanceSubmitWaitResult(t *testing.T) {
	eachClient(t, 2, func(t *testing.T, c client.Client) {
		ctx := context.Background()
		h, err := c.Submit(ctx, client.Spec{Random: &client.RandomSpec{N: 16, Seed: 11}, Dim: 1})
		if err != nil {
			t.Fatal(err)
		}
		if h.ID() == "" {
			t.Fatal("empty job ID")
		}
		res, err := h.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Values) != 16 || !res.Converged {
			t.Fatalf("result incomplete: %d values, converged=%v", len(res.Values), res.Converged)
		}
		st, err := h.Status(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != client.StateDone || !st.Terminal() {
			t.Errorf("state %s after Wait", st.State)
		}
		// Result is repeatable after completion.
		again, err := h.Result(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for i := range res.Values {
			if res.Values[i] != again.Values[i] {
				t.Fatalf("Result not stable at value %d", i)
			}
		}
		m, err := c.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if m.Completed < 1 || m.Workers != 2 {
			t.Errorf("metrics: completed=%d workers=%d", m.Completed, m.Workers)
		}
	})
}

// TestConformanceExplicitMatrix: an inline matrix solves on both
// transports, and the service keeps its own copy — overwriting the
// caller's data while the job is still queued does not change the answer
// (the eigenvalues still sum to the original trace).
func TestConformanceExplicitMatrix(t *testing.T) {
	eachClient(t, 1, func(t *testing.T, c client.Client) {
		ctx := context.Background()
		// A non-converging emulated solve holds the single worker, so the
		// explicit job is still queued when its input is overwritten.
		blocker, err := c.Submit(ctx, client.Spec{
			Random: &client.RandomSpec{N: 64, Seed: 71}, Dim: 2, Backend: "emulated",
			Tol: 1e-300, MaxSweeps: 100000,
		})
		if err != nil {
			t.Fatal(err)
		}
		const n = 8
		data := make([]float64, n*n)
		trace := 0.0
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				data[i*n+j] = 1 / float64(1+i+j)
			}
			data[i*n+i] += n
			trace += data[i*n+i]
		}
		h, err := c.Submit(ctx, client.Spec{Matrix: &client.MatrixSpec{N: n, Data: data}, Dim: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i := range data {
			data[i] = math.NaN()
		}
		if err := blocker.Cancel(ctx); err != nil {
			t.Fatal(err)
		}
		res, err := h.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Values) != n || !res.Converged {
			t.Fatalf("result incomplete: %d values, converged=%v", len(res.Values), res.Converged)
		}
		sum := 0.0
		for _, v := range res.Values {
			sum += v
		}
		if !(math.Abs(sum-trace) <= 1e-9*trace) { // a NaN sum fails too
			t.Errorf("eigenvalues sum to %v, want the trace %v", sum, trace)
		}
	})
}

// TestConformanceEvents is the acceptance criterion of the event stream: a
// converged job's stream is ordered queued → started → ≥1 sweep progress
// → done, with strictly increasing sequence numbers, on both transports.
func TestConformanceEvents(t *testing.T) {
	eachClient(t, 2, func(t *testing.T, c client.Client) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		h, err := c.Submit(ctx, client.Spec{Random: &client.RandomSpec{N: 24, Seed: 21}, Dim: 2})
		if err != nil {
			t.Fatal(err)
		}
		events, err := h.Events(ctx)
		if err != nil {
			t.Fatal(err)
		}
		var got []client.Event
		for ev := range events {
			got = append(got, ev)
		}
		if len(got) < 4 {
			t.Fatalf("only %d events: %+v", len(got), got)
		}
		if got[0].Type != client.EventQueued {
			t.Errorf("first event %s, want queued", got[0].Type)
		}
		if got[1].Type != client.EventStarted {
			t.Errorf("second event %s, want started", got[1].Type)
		}
		sweeps := 0
		for i, ev := range got {
			if i > 0 && ev.Seq <= got[i-1].Seq {
				t.Errorf("seq not increasing at %d: %d after %d", i, ev.Seq, got[i-1].Seq)
			}
			if ev.JobID != h.ID() {
				t.Errorf("event %d names job %q, want %q", i, ev.JobID, h.ID())
			}
			if ev.Type == client.EventSweep {
				sweeps++
				if ev.Sweep == nil {
					t.Fatalf("sweep event %d has no payload", i)
				}
				if ev.Sweep.Sweep != sweeps {
					t.Errorf("sweep payload %d out of order: %d", i, ev.Sweep.Sweep)
				}
				if i < 2 || got[len(got)-1].Type.Terminal() && i == len(got)-1 {
					t.Errorf("sweep event at position %d, outside started..terminal", i)
				}
			}
		}
		if sweeps < 1 {
			t.Error("no sweep progress events")
		}
		last := got[len(got)-1]
		if last.Type != client.EventDone {
			t.Errorf("stream ends with %s, want done", last.Type)
		}
		// The stream is replayable: a second subscription after the fact
		// sees the same ordered prefix.
		replay, err := h.Events(ctx)
		if err != nil {
			t.Fatal(err)
		}
		var again []client.Event
		for ev := range replay {
			again = append(again, ev)
		}
		if len(again) != len(got) {
			t.Fatalf("replay has %d events, live stream had %d", len(again), len(got))
		}
		for i := range got {
			if again[i].Type != got[i].Type || again[i].Seq != got[i].Seq {
				t.Fatalf("replay diverges at %d: %+v vs %+v", i, again[i], got[i])
			}
		}
	})
}

// TestConformanceCancel: canceling a queued job yields a canceled terminal
// state, a typed error from Wait, and a canceled-terminated event stream.
func TestConformanceCancel(t *testing.T) {
	eachClient(t, 1, func(t *testing.T, c client.Client) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		// A non-converging emulated solve (unreachable tolerance) occupies
		// the single worker until it is canceled — deterministically, with
		// no race against its own completion; the victim stays queued.
		blocker, err := c.Submit(ctx, client.Spec{
			Random: &client.RandomSpec{N: 64, Seed: 31}, Dim: 2, Backend: "emulated",
			Tol: 1e-300, MaxSweeps: 100000,
		})
		if err != nil {
			t.Fatal(err)
		}
		victim, err := c.Submit(ctx, client.Spec{Random: &client.RandomSpec{N: 16, Seed: 32}, Dim: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := victim.Cancel(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := victim.Wait(ctx); err == nil {
			t.Fatal("canceled job produced a result")
		} else {
			var ce *client.Error
			if !errors.As(err, &ce) || ce.Code != client.CodeJobCanceled {
				t.Errorf("Wait error %v, want code %s", err, client.CodeJobCanceled)
			}
		}
		st, err := victim.Status(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != client.StateCanceled {
			t.Errorf("victim state %s", st.State)
		}
		events, err := victim.Events(ctx)
		if err != nil {
			t.Fatal(err)
		}
		var last client.Event
		for ev := range events {
			last = ev
		}
		if last.Type != client.EventCanceled {
			t.Errorf("victim stream ends with %s", last.Type)
		}
		// Unblock the worker; the blocker is canceled too and must not
		// return a result.
		if err := blocker.Cancel(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := blocker.Wait(ctx); err == nil {
			t.Error("canceled blocker produced a result")
		}
	})
}

// TestConformanceResultBeforeFinish: Result on a queued/running job is a
// typed not_finished error, not a block.
func TestConformanceResultBeforeFinish(t *testing.T) {
	eachClient(t, 1, func(t *testing.T, c client.Client) {
		ctx := context.Background()
		blocker, err := c.Submit(ctx, client.Spec{
			Random: &client.RandomSpec{N: 64, Seed: 41}, Dim: 2, Backend: "emulated",
			Tol: 1e-300, MaxSweeps: 100000,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer blocker.Cancel(ctx)
		queued, err := c.Submit(ctx, client.Spec{Random: &client.RandomSpec{N: 16, Seed: 42}, Dim: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer queued.Cancel(ctx)
		_, err = queued.Result(ctx)
		var ce *client.Error
		if !errors.As(err, &ce) || ce.Code != client.CodeNotFinished {
			t.Errorf("pending Result error %v, want code %s", err, client.CodeNotFinished)
		}
	})
}

// TestConformanceInvalidSpec: validation failures carry the same typed
// code and field on both transports.
func TestConformanceInvalidSpec(t *testing.T) {
	eachClient(t, 1, func(t *testing.T, c client.Client) {
		ctx := context.Background()
		for _, tc := range []struct {
			name  string
			spec  client.Spec
			field string
		}{
			{"no input", client.Spec{Dim: 1}, "matrix"},
			{"bad dim", client.Spec{Random: &client.RandomSpec{N: 16, Seed: 1}, Dim: -2}, "dim"},
			{"bad backend", client.Spec{Random: &client.RandomSpec{N: 16, Seed: 1}, Dim: 1, Backend: "gpu"}, "backend"},
			{"bad ordering", client.Spec{Random: &client.RandomSpec{N: 16, Seed: 1}, Dim: 1, Ordering: "zig"}, "ordering"},
			{"both inputs", client.Spec{Random: &client.RandomSpec{N: 16, Seed: 1}, Matrix: &client.MatrixSpec{N: 2, Data: []float64{1, 0, 0, 1}}, Dim: 1}, "matrix"},
			{"random n=0", client.Spec{Random: &client.RandomSpec{N: 0}, Dim: 1}, "random"},
			{"random n=4097", client.Spec{Random: &client.RandomSpec{N: 4097}, Dim: 1}, "random"},
			{"matrix n=4097", client.Spec{Matrix: &client.MatrixSpec{N: 4097}, Dim: 1}, "matrix"},
			{"data length", client.Spec{Matrix: &client.MatrixSpec{N: 2, Data: []float64{1, 0, 1}}, Dim: 1}, "matrix"},
			{"asymmetric", client.Spec{Matrix: &client.MatrixSpec{N: 2, Data: []float64{1, 2, 3, 1}}, Dim: 1}, "matrix"},
			{"long idempotency key", client.Spec{Random: &client.RandomSpec{N: 16, Seed: 1}, Dim: 1, IdempotencyKey: strings.Repeat("k", 129)}, "idempotency_key"},
		} {
			_, err := c.Submit(ctx, tc.spec)
			var ce *client.Error
			if !errors.As(err, &ce) {
				t.Errorf("%s: error %v is not *client.Error", tc.name, err)
				continue
			}
			if ce.Code != client.CodeInvalidSpec || ce.Field != tc.field {
				t.Errorf("%s: code=%s field=%q, want %s/%q", tc.name, ce.Code, ce.Field, client.CodeInvalidSpec, tc.field)
			}
		}
	})
}

// TestConformanceIdempotency: resubmitting under the same key returns the
// same job with Reused set; a fresh key creates a fresh job.
func TestConformanceIdempotency(t *testing.T) {
	eachClient(t, 2, func(t *testing.T, c client.Client) {
		ctx := context.Background()
		spec := client.Spec{Random: &client.RandomSpec{N: 16, Seed: 51}, Dim: 1, IdempotencyKey: "conf-key"}
		h1, err := c.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		h2, err := c.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if h1.ID() != h2.ID() {
			t.Errorf("key reuse created a second job: %s vs %s", h1.ID(), h2.ID())
		}
		st, err := h2.Status(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Reused {
			t.Error("reused submission not flagged")
		}
		spec.IdempotencyKey = "other-key"
		h3, err := c.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if h3.ID() == h1.ID() {
			t.Error("distinct keys shared a job")
		}
	})
}

// TestConformancePagination: listing pages walk every job in submission
// order on both transports, and past-end cursors yield empty pages.
func TestConformancePagination(t *testing.T) {
	eachClient(t, 2, func(t *testing.T, c client.Client) {
		ctx := context.Background()
		var ids []string
		var handles []client.JobHandle
		for i := 0; i < 5; i++ {
			h, err := c.Submit(ctx, client.Spec{
				Label:    fmt.Sprintf("page-%d", i),
				Random:   &client.RandomSpec{N: 16, Seed: int64(61 + i)},
				Dim:      1,
				CostOnly: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, h.ID())
			handles = append(handles, h)
		}
		for _, h := range handles {
			if _, err := h.Wait(ctx); err != nil {
				t.Fatal(err)
			}
		}
		var walked []string
		cursor := ""
		for {
			page, err := c.Jobs(ctx, client.ListOptions{Cursor: cursor, Limit: 2})
			if err != nil {
				t.Fatal(err)
			}
			if len(page.Jobs) > 2 {
				t.Fatalf("page of %d jobs over limit 2", len(page.Jobs))
			}
			for _, st := range page.Jobs {
				walked = append(walked, st.ID)
			}
			if page.NextCursor == "" {
				break
			}
			cursor = page.NextCursor
		}
		if len(walked) != len(ids) {
			t.Fatalf("walk saw %d jobs, want %d", len(walked), len(ids))
		}
		for i := range ids {
			if walked[i] != ids[i] {
				t.Errorf("walk position %d is %s, want %s", i, walked[i], ids[i])
			}
		}
		// Past-end cursor: empty page, no error, no next cursor.
		page, err := c.Jobs(ctx, client.ListOptions{Cursor: "job-9999", Limit: 2})
		if err != nil {
			t.Fatal(err)
		}
		if len(page.Jobs) != 0 || page.NextCursor != "" {
			t.Errorf("past-end page: %d jobs, next %q", len(page.Jobs), page.NextCursor)
		}
		// Malformed cursor: typed bad_request on both transports.
		_, err = c.Jobs(ctx, client.ListOptions{Cursor: "not-a-job"})
		var ce *client.Error
		if !errors.As(err, &ce) || ce.Code != client.CodeBadRequest {
			t.Errorf("malformed cursor error %v, want code %s", err, client.CodeBadRequest)
		}
	})
}

// TestConformanceBatchSubmit: SubmitAll accepts a mixed batch on both
// transports (one round trip on HTTP) and every job completes.
func TestConformanceBatchSubmit(t *testing.T) {
	eachClient(t, 2, func(t *testing.T, c client.Client) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		specs := []client.Spec{
			{Random: &client.RandomSpec{N: 16, Seed: 71}, Dim: 1},
			{Random: &client.RandomSpec{N: 24, Seed: 72}, Dim: 1, Ordering: "br"},
			{Random: &client.RandomSpec{N: 16, Seed: 73}, Dim: 2, CostOnly: true},
		}
		handles, err := client.SubmitAll(ctx, c, specs)
		if err != nil {
			t.Fatal(err)
		}
		if len(handles) != len(specs) {
			t.Fatalf("%d handles for %d specs", len(handles), len(specs))
		}
		for i, h := range handles {
			if _, err := h.Wait(ctx); err != nil {
				t.Errorf("batch job %d: %v", i, err)
			}
		}
		m, err := c.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if m.Completed < int64(len(specs)) {
			t.Errorf("metrics completed=%d, want >=%d", m.Completed, len(specs))
		}
	})
}
