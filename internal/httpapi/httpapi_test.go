package httpapi_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/client"
	"repro/internal/httpapi"
	"repro/internal/matrix"
	"repro/internal/service"
)

// newServer boots a service plus its full handler on an httptest listener.
func newServer(t *testing.T, cfg service.Config) (*service.Service, *httptest.Server) {
	t.Helper()
	svc := service.New(cfg)
	srv := httptest.NewServer(httpapi.NewHandler(svc))
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return svc, srv
}

// doReq performs one request and decodes the body.
func doReq(t *testing.T, method, url string, body any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// wantError asserts a structured v2 error body.
func wantError(t *testing.T, code int, body []byte, wantStatus int, wantCode, wantField string) {
	t.Helper()
	if code != wantStatus {
		t.Errorf("status %d, want %d (%s)", code, wantStatus, body)
	}
	var e client.Error
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("error body is not structured: %s", body)
	}
	if e.Code != wantCode {
		t.Errorf("code %q, want %q (%s)", e.Code, wantCode, body)
	}
	if wantField != "" && e.Field != wantField {
		t.Errorf("field %q, want %q (%s)", e.Field, wantField, body)
	}
	if e.Message == "" {
		t.Errorf("error body has no message: %s", body)
	}
}

// TestV2StructuredErrors: every v2 failure path answers with a
// {code, message, field} body and a conventional status.
func TestV2StructuredErrors(t *testing.T) {
	_, srv := newServer(t, service.Config{Workers: 1})

	// Undecodable JSON.
	resp, err := http.Post(srv.URL+"/api/v2/jobs", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	wantError(t, resp.StatusCode, raw, http.StatusBadRequest, client.CodeBadRequest, "")

	// Spec validation, with the offending field named.
	code, body := doReq(t, http.MethodPost, srv.URL+"/api/v2/jobs", client.Spec{Dim: 1})
	wantError(t, code, body, http.StatusBadRequest, client.CodeInvalidSpec, "matrix")
	code, body = doReq(t, http.MethodPost, srv.URL+"/api/v2/jobs",
		client.Spec{Random: &client.RandomSpec{N: 16, Seed: 1}, Dim: 1, Backend: "gpu"})
	wantError(t, code, body, http.StatusBadRequest, client.CodeInvalidSpec, "backend")

	// Unknown jobs, on every per-job route.
	for _, probe := range []struct{ method, path string }{
		{http.MethodGet, "/api/v2/jobs/job-999"},
		{http.MethodDelete, "/api/v2/jobs/job-999"},
		{http.MethodGet, "/api/v2/jobs/job-999/result"},
		{http.MethodGet, "/api/v2/jobs/job-999/events"},
	} {
		code, body = doReq(t, probe.method, srv.URL+probe.path, nil)
		wantError(t, code, body, http.StatusNotFound, client.CodeNotFound, "")
	}

	// Batch failures name the offending entry.
	code, body = doReq(t, http.MethodPost, srv.URL+"/api/v2/batch", map[string]any{
		"jobs": []client.Spec{
			{Random: &client.RandomSpec{N: 16, Seed: 1}, Dim: 1},
			{Random: &client.RandomSpec{N: 16, Seed: 2}, Dim: -3},
		},
	})
	wantError(t, code, body, http.StatusBadRequest, client.CodeInvalidSpec, "jobs[1].dim")
	code, body = doReq(t, http.MethodPost, srv.URL+"/api/v2/batch", map[string]any{"jobs": []client.Spec{}})
	wantError(t, code, body, http.StatusBadRequest, client.CodeBadRequest, "jobs")

	// Listing rejects malformed paging parameters.
	code, body = doReq(t, http.MethodGet, srv.URL+"/api/v2/jobs?cursor=zap", nil)
	wantError(t, code, body, http.StatusBadRequest, client.CodeBadRequest, "cursor")
	code, body = doReq(t, http.MethodGet, srv.URL+"/api/v2/jobs?limit=many", nil)
	wantError(t, code, body, http.StatusBadRequest, client.CodeBadRequest, "limit")
}

// TestV2ResultStates: result retrieval distinguishes pending, canceled and
// done with typed codes.
func TestV2ResultStates(t *testing.T) {
	svc, srv := newServer(t, service.Config{Workers: 1})

	// Occupy the worker so the probe job stays queued.
	blocker, err := svc.Submit(context.Background(), service.JobSpec{
		Matrix: matrix.RandomSymmetric(384, rand.New(rand.NewSource(1))), Dim: 2, Backend: service.BackendEmulated,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer blocker.Cancel()

	code, body := doReq(t, http.MethodPost, srv.URL+"/api/v2/jobs",
		client.Spec{Random: &client.RandomSpec{N: 16, Seed: 5}, Dim: 1})
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d: %s", code, body)
	}
	var st client.Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}

	code, body = doReq(t, http.MethodGet, srv.URL+"/api/v2/jobs/"+st.ID+"/result", nil)
	wantError(t, code, body, http.StatusConflict, client.CodeNotFinished, "")

	code, body = doReq(t, http.MethodDelete, srv.URL+"/api/v2/jobs/"+st.ID, nil)
	if code != http.StatusOK {
		t.Fatalf("cancel returned %d: %s", code, body)
	}
	code, body = doReq(t, http.MethodGet, srv.URL+"/api/v2/jobs/"+st.ID+"/result", nil)
	wantError(t, code, body, http.StatusConflict, client.CodeJobCanceled, "")
}

// TestV2PaginationEdges: the HTTP listing serves empty services, empty
// past-end pages, and exact-limit walks.
func TestV2PaginationEdges(t *testing.T) {
	svc, srv := newServer(t, service.Config{Workers: 2})

	// Empty service: an empty page with no cursor, not an error.
	code, body := doReq(t, http.MethodGet, srv.URL+"/api/v2/jobs", nil)
	if code != http.StatusOK {
		t.Fatalf("empty list returned %d", code)
	}
	var page client.JobPage
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Jobs) != 0 || page.NextCursor != "" {
		t.Errorf("empty service page: %+v", page)
	}

	var jobs []*service.Job
	for i := 0; i < 4; i++ {
		j, err := svc.Submit(context.Background(), service.JobSpec{
			Matrix: matrix.RandomSymmetric(16, rand.New(rand.NewSource(int64(i)))), Dim: 1, CostOnly: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	if err := service.WaitAll(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}

	// limit == remaining: one full page, then an empty one via the cursor.
	code, body = doReq(t, http.MethodGet, srv.URL+"/api/v2/jobs?limit=4", nil)
	if code != http.StatusOK {
		t.Fatalf("list returned %d", code)
	}
	page = client.JobPage{}
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Jobs) != 4 {
		t.Fatalf("page has %d jobs", len(page.Jobs))
	}
	if page.NextCursor != "" {
		// An exact-limit page may advertise a cursor; following it must
		// yield an empty terminal page.
		code, body = doReq(t, http.MethodGet, srv.URL+"/api/v2/jobs?cursor="+page.NextCursor, nil)
		if code != http.StatusOK {
			t.Fatalf("follow-up page returned %d", code)
		}
		page = client.JobPage{}
		if err := json.Unmarshal(body, &page); err != nil {
			t.Fatal(err)
		}
		if len(page.Jobs) != 0 || page.NextCursor != "" {
			t.Errorf("terminal page: %+v", page)
		}
	}

	// Past-end cursor.
	code, body = doReq(t, http.MethodGet, srv.URL+"/api/v2/jobs?cursor=job-4000", nil)
	if code != http.StatusOK {
		t.Fatalf("past-end returned %d", code)
	}
	page = client.JobPage{}
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Jobs) != 0 || page.NextCursor != "" {
		t.Errorf("past-end page: %+v", page)
	}
}

// TestV2EventStreamTeardown: a consumer that disconnects mid-stream
// releases its subscription promptly — the job is not left fanning out to
// a dead connection.
func TestV2EventStreamTeardown(t *testing.T) {
	svc, srv := newServer(t, service.Config{Workers: 1})
	// A long emulated solve keeps the stream alive while we disconnect.
	j, err := svc.Submit(context.Background(), service.JobSpec{
		Matrix: matrix.RandomSymmetric(384, rand.New(rand.NewSource(9))), Dim: 2, Backend: service.BackendEmulated,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Cancel()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/api/v2/jobs/"+j.ID()+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events returned %d", resp.StatusCode)
	}
	// Read the first line (the queued event) to prove the stream is live.
	rd := bufio.NewReader(resp.Body)
	line, err := rd.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	var ev client.Event
	if err := json.Unmarshal(line, &ev); err != nil {
		t.Fatalf("first stream line is not an event: %s", line)
	}
	if ev.Type != client.EventQueued {
		t.Errorf("first event %s, want queued", ev.Type)
	}
	if n := j.Subscribers(); n != 1 {
		t.Fatalf("%d subscribers while streaming, want 1", n)
	}

	// Disconnect; the handler must notice and drop the subscription.
	cancel()
	deadline := time.Now().Add(10 * time.Second)
	for j.Subscribers() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("subscription not torn down after disconnect (%d left)", j.Subscribers())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestV2SSEFormat: with Accept: text/event-stream the stream switches to
// SSE framing (event:/data: records) and still ends at the terminal
// event.
func TestV2SSEFormat(t *testing.T) {
	svc, srv := newServer(t, service.Config{Workers: 1})
	j, err := svc.Submit(context.Background(), service.JobSpec{
		Matrix: matrix.RandomSymmetric(16, rand.New(rand.NewSource(3))), Dim: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	req, err := http.NewRequest(http.MethodGet, srv.URL+"/api/v2/jobs/"+j.ID()+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body) // terminal event closes the stream
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{"event: queued\n", "event: started\n", "event: sweep\n", "event: done\n", "data: {"} {
		if !strings.Contains(text, want) {
			t.Errorf("SSE stream lacks %q:\n%s", want, text)
		}
	}
}

// TestHealthzAndNoV1: /healthz answers 200 and the retired /api/v1
// surface is gone.
func TestHealthzAndNoV1(t *testing.T) {
	_, srv := newServer(t, service.Config{Workers: 1})
	if code, body := doReq(t, http.MethodGet, srv.URL+"/healthz", nil); code != http.StatusOK {
		t.Errorf("healthz returned %d: %s", code, body)
	}
	code, body := doReq(t, http.MethodPost, srv.URL+"/api/v1/jobs",
		client.Spec{Random: &client.RandomSpec{N: 16, Seed: 8}, Dim: 1})
	if code != http.StatusNotFound {
		t.Errorf("POST /api/v1/jobs returned %d, want 404: %s", code, body)
	}
}
