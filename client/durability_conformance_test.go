package client_test

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/client"
	"repro/internal/frame"
	"repro/internal/httpapi"
	"repro/internal/matrix"
	"repro/internal/service"
	"repro/internal/store"
)

// slowSpec is a deterministic long-running solve: the tolerance is below
// any reachable off-diagonal value, so it runs exactly MaxSweeps sweeps on
// the reference (emulated) path — a stable kill window with a bit-exact
// expected result.
func slowSpec(seed int64) client.Spec {
	return client.Spec{
		Random:    &client.RandomSpec{N: 32, Seed: seed},
		Dim:       2,
		Backend:   "emulated",
		Tol:       1e-300,
		MaxSweeps: 40,
	}
}

// controlResult solves the spec uninterrupted on a plain in-process pool.
func controlResult(t *testing.T, spec client.Spec) *client.Result {
	t.Helper()
	c, err := client.NewLocal(client.LocalConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h, err := c.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// awaitSweeps consumes the handle's event stream until n sweep events
// arrived, then cancels the stream.
func awaitSweeps(t *testing.T, h client.JobHandle, n int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	events, err := h.Events(ctx)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for ev := range events {
		if ev.Type == client.EventSweep {
			if seen++; seen >= n {
				cancel()
			}
		}
		if ev.Type.Terminal() {
			t.Fatal("job finished before the kill point — make the spec slower")
		}
	}
	if seen < n {
		t.Fatalf("stream ended after %d sweeps, want %d", seen, n)
	}
}

// assertResumedResult compares a recovered job's outcome against the
// uninterrupted control.
func assertResumedResult(t *testing.T, st *client.Status, res, control *client.Result, wantRestarts int) {
	t.Helper()
	if st.Restarts != wantRestarts {
		t.Fatalf("status reports %d restarts, want %d", st.Restarts, wantRestarts)
	}
	if st.ResumedFromSweep < 1 {
		t.Fatalf("status reports resume from sweep %d, want >= 1 (checkpoint not used)", st.ResumedFromSweep)
	}
	if res.Sweeps != control.Sweeps || res.Rotations != control.Rotations || res.Converged != control.Converged {
		t.Fatalf("resumed outcome (sweeps=%d rot=%d conv=%v) != control (sweeps=%d rot=%d conv=%v)",
			res.Sweeps, res.Rotations, res.Converged, control.Sweeps, control.Rotations, control.Converged)
	}
	for i := range control.Values {
		if res.Values[i] != control.Values[i] {
			t.Fatalf("resumed eigenvalue %d = %v, control %v (not bit-identical)", i, res.Values[i], control.Values[i])
		}
	}
}

// TestConformanceKillAndRestartLocal: a Local client on a data directory
// is killed mid-solve (Close == crash for resume purposes: shutdown
// cancellations are not journaled as terminal); a new client on the same
// directory resumes the job from its checkpoint and produces the
// uninterrupted run's exact result.
func TestConformanceKillAndRestartLocal(t *testing.T) {
	spec := slowSpec(101)
	control := controlResult(t, spec)
	dir := t.TempDir()

	c1, err := client.NewLocal(client.LocalConfig{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	h, err := c1.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	awaitSweeps(t, h, 2)
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := client.NewLocal(client.LocalConfig{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	rh, ok := c2.Handle(h.ID())
	if !ok {
		t.Fatalf("job %s not recovered by the new client", h.ID())
	}
	res, err := rh.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	st, err := rh.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertResumedResult(t, st, res, control, 1)
}

// TestConformanceKillAndRestartHTTP: the same scenario across the wire —
// the server process "dies" (service closed mid-solve), a new server
// opens the same store, and a fresh HTTP client attaches to the old job
// ID and receives the uninterrupted result. The explicit-matrix case
// travels as a frame on the wire as well as in the journal.
func TestConformanceKillAndRestartHTTP(t *testing.T) {
	random := slowSpec(202)
	explicit := slowSpec(203)
	a := matrix.RandomSymmetric(explicit.Random.N, rand.New(rand.NewSource(explicit.Random.Seed)))
	explicit.Random = nil
	explicit.Matrix = &client.MatrixSpec{N: a.Rows, Data: a.Data}
	for _, tc := range []struct {
		name string
		spec client.Spec
	}{{"random", random}, {"explicit", explicit}} {
		t.Run(tc.name, func(t *testing.T) { killAndRestartHTTP(t, tc.spec) })
	}
}

func killAndRestartHTTP(t *testing.T, spec client.Spec) {
	control := controlResult(t, spec)
	dir := t.TempDir()

	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc1 := service.New(service.Config{Workers: 1, Store: st1})
	srv1 := httptest.NewServer(httpapi.NewHandler(svc1))
	c1, err := client.NewHTTP(srv1.URL)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c1.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	awaitSweeps(t, h, 2)
	// Kill: service first (shutdown cancel, checkpoint survives), then the
	// listener.
	svc1.Close()
	srv1.Close()
	st1.Close()
	c1.Close()

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	for _, rec := range st2.Records() {
		if rec.Kind == store.KindSubmitted && rec.ID == h.ID() && !frame.Is(rec.Spec) {
			t.Fatalf("job %s journaled without a spec frame", h.ID())
		}
	}
	svc2 := service.New(service.Config{Workers: 1, Store: st2})
	defer svc2.Close()
	srv2 := httptest.NewServer(httpapi.NewHandler(svc2))
	defer srv2.Close()
	c2, err := client.NewHTTP(srv2.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	rh := c2.Handle(h.ID())
	res, err := rh.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	st, err := rh.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertResumedResult(t, st, res, control, 1)
}

// TestConformanceStreamCancelNoLeak pins the event-stream teardown
// satellite: canceling subscribers mid-stream (before the terminal event)
// must release every stream goroutine and response body on both
// transports, and must detach the server-side subscribers.
func TestConformanceStreamCancelNoLeak(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	srv := httptest.NewServer(httpapi.NewHandler(svc))
	hc, err := client.NewHTTP(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	lc, err := client.NewLocal(client.LocalConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		hc.Close()
		srv.Close()
		svc.Close()
		lc.Close()
	})

	for _, tc := range []struct {
		name   string
		c      client.Client
		jobRef func(id string) (*service.Job, bool)
	}{
		{"HTTP", hc, svc.Job},
		{"Local", lc, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctxAll := context.Background()
			h, err := tc.c.Submit(ctxAll, slowSpec(303))
			if err != nil {
				t.Fatal(err)
			}
			defer h.Cancel(ctxAll)
			awaitSweeps(t, h, 1) // the job is demonstrably mid-stream
			base := runtime.NumGoroutine()

			const streams = 8
			var cancels []context.CancelFunc
			var chans []<-chan client.Event
			for i := 0; i < streams; i++ {
				ctx, cancel := context.WithCancel(ctxAll)
				cancels = append(cancels, cancel)
				events, err := h.Events(ctx)
				if err != nil {
					t.Fatal(err)
				}
				// Prove the stream is live before it is cut.
				select {
				case <-events:
				case <-time.After(10 * time.Second):
					t.Fatal("stream delivered nothing")
				}
				chans = append(chans, events)
			}
			for _, cancel := range cancels {
				cancel()
			}
			// Every channel must close promptly after its cancellation.
			for i, events := range chans {
				deadline := time.After(10 * time.Second)
				for open := true; open; {
					select {
					case _, ok := <-events:
						open = ok
					case <-deadline:
						t.Fatalf("stream %d still open after cancel", i)
					}
				}
			}
			// Goroutines return to (about) the pre-stream baseline.
			grown := 0
			for i := 0; i < 100; i++ {
				if grown = runtime.NumGoroutine() - base; grown <= 2 {
					break
				}
				time.Sleep(20 * time.Millisecond)
			}
			if grown > 2 {
				t.Fatalf("%d goroutines leaked by canceled streams", grown)
			}
			// Server side: the job carries no dangling subscribers.
			if tc.jobRef != nil {
				j, ok := tc.jobRef(h.ID())
				if !ok {
					t.Fatal("job lost")
				}
				for i := 0; ; i++ {
					if j.Subscribers() == 0 {
						break
					}
					if i >= 100 {
						t.Fatalf("%d server-side subscribers still attached", j.Subscribers())
					}
					time.Sleep(20 * time.Millisecond)
				}
			}
		})
	}
}
