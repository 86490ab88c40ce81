package httpapi_test

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/client"
	"repro/internal/frame"
	"repro/internal/httpapi"
	"repro/internal/matrix"
	"repro/internal/service"
)

// rawFrame lays out a frame by hand so tests can claim a value count the
// data does not match (frame.Encode always writes a consistent one).
func rawFrame(hdr string, count uint32, data []float64) []byte {
	b := []byte("JSPF")
	b = binary.LittleEndian.AppendUint32(b, frame.Version)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(hdr)))
	b = append(b, hdr...)
	b = binary.LittleEndian.AppendUint32(b, count)
	for _, v := range data {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)))
}

func post(t *testing.T, url, contentType string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, contentType, strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// TestMalformedFrames: every malformed frame on POST /api/v2/jobs gets a
// structured 400 — without accepting a job, and without allocating what
// a hostile value count claims.
func TestMalformedFrames(t *testing.T) {
	svc, srv := newServer(t, service.Config{Workers: 1})
	sym := []float64{2, 1, 0, 0, 1, 2, 1, 0, 0, 1, 2, 1, 0, 0, 1, 2}
	asym := append([]float64{9}, sym[1:]...)
	asym[1] = 3
	good := rawFrame(`{"matrix":{"n":4},"dim":1}`, 16, sym)
	flip := func(b []byte, i int) []byte {
		b = append([]byte(nil), b...)
		b[i] ^= 0x40
		return b
	}
	for _, tc := range []struct {
		name        string
		body        []byte
		code, field string
	}{
		{"bad magic", flip(good, 0), client.CodeBadRequest, ""},
		{"bad version", flip(good, 4), client.CodeBadRequest, ""},
		{"bad CRC", flip(good, len(good)-12), client.CodeBadRequest, ""},
		{"truncated header", good[:20], client.CodeBadRequest, ""},
		{"truncated values", good[:len(good)-9], client.CodeBadRequest, ""},
		{"header not JSON", rawFrame(`{"matrix":`, 16, sym), client.CodeBadRequest, ""},
		{"count short of n²", rawFrame(`{"matrix":{"n":4},"dim":1}`, 15, sym[:15]), client.CodeInvalidSpec, "matrix"},
		{"count over 4096²", rawFrame(`{"matrix":{"n":4096},"dim":1}`, frame.MaxCount+1, sym), client.CodeBadRequest, ""},
		{"count of 4096², no values", rawFrame(`{"matrix":{"n":4096},"dim":1}`, frame.MaxCount, nil), client.CodeBadRequest, ""},
		{"header with no matrix", rawFrame(`{"random":{"n":4},"dim":1}`, 0, nil), client.CodeInvalidSpec, "matrix"},
		{"header with random too", rawFrame(`{"matrix":{"n":4},"random":{"n":4},"dim":1}`, 16, sym), client.CodeInvalidSpec, "matrix"},
		{"header with data", rawFrame(`{"matrix":{"n":1,"data":[2]},"dim":1}`, 1, sym[:1]), client.CodeInvalidSpec, "matrix"},
		{"asymmetric", rawFrame(`{"matrix":{"n":4},"dim":1}`, 16, asym), client.CodeInvalidSpec, "matrix"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			code, body := post(t, srv.URL+"/api/v2/jobs", frame.ContentType, tc.body)
			runtime.ReadMemStats(&after)
			wantError(t, code, body, http.StatusBadRequest, tc.code, tc.field)
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
				t.Fatalf("rejecting the frame allocated %d MiB", grew>>20)
			}
		})
	}
	if n := svc.Metrics().Submitted; n != 0 {
		t.Fatalf("%d malformed frames were accepted", n)
	}
	// The server is still healthy, and the well-formed frame is accepted.
	code, body := post(t, srv.URL+"/api/v2/jobs", frame.ContentType+"; charset=binary", good)
	if code != http.StatusAccepted {
		t.Fatalf("good frame: status %d: %s", code, body)
	}
}

// TestTrailingJSONRejected: a JSON body must be exactly one value
// (whitespace aside) on both submit routes.
func TestTrailingJSONRejected(t *testing.T) {
	_, srv := newServer(t, service.Config{Workers: 1})
	for _, tc := range []struct{ route, body string }{
		{"/api/v2/jobs", `{"random":{"n":8},"dim":2}garbage`},
		{"/api/v2/jobs", `{"random":{"n":8},"dim":2} {"random":{"n":8},"dim":2}`},
		{"/api/v2/batch", `{"jobs":[{"random":{"n":8},"dim":2}]}garbage`},
	} {
		code, body := post(t, srv.URL+tc.route, "application/json", []byte(tc.body))
		wantError(t, code, body, http.StatusBadRequest, client.CodeBadRequest, "")
	}
	for _, route := range []string{"/api/v2/jobs", "/api/v2/batch"} {
		body := `{"random":{"n":8},"dim":2}` + " \n\t"
		if route == "/api/v2/batch" {
			body = `{"jobs":[{"random":{"n":8},"dim":2}]}` + "\n"
		}
		if code, raw := post(t, srv.URL+route, "application/json", []byte(body)); code != http.StatusAccepted {
			t.Fatalf("%s with trailing whitespace: status %d: %s", route, code, raw)
		}
	}
}

// TestFrameAndJSONSubmitsAgree: one explicit matrix sent once as a JSON
// body and once as a frame (client.HTTP) is the same job input — same
// fingerprint, so the second submit is a cache hit with bit-identical
// values.
func TestFrameAndJSONSubmitsAgree(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	api := httpapi.NewHandler(svc)
	var mu sync.Mutex
	var submitTypes []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			mu.Lock()
			submitTypes = append(submitTypes, r.Header.Get("Content-Type"))
			mu.Unlock()
		}
		api.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	ctx := context.Background()
	a := matrix.RandomSymmetric(24, rand.New(rand.NewSource(5)))
	spec := client.Spec{Matrix: &client.MatrixSpec{N: 24, Data: a.Data}, Dim: 2, Backend: "emulated"}

	code, body := doReq(t, http.MethodPost, srv.URL+"/api/v2/jobs", spec)
	if code != http.StatusAccepted {
		t.Fatalf("JSON submit: status %d: %s", code, body)
	}
	var st client.Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	c, err := client.NewHTTP(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	first := c.Handle(st.ID)
	want, err := first.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}

	h, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if len(submitTypes) != 2 || submitTypes[1] != frame.ContentType {
		t.Fatalf("submit content types %q, want the second to be %q", submitTypes, frame.ContentType)
	}
	mu.Unlock()
	j1, _ := svc.Job(st.ID)
	j2, _ := svc.Job(h.ID())
	if j1.Fingerprint() != j2.Fingerprint() {
		t.Fatalf("fingerprints differ: JSON %x, frame %x", j1.Fingerprint(), j2.Fingerprint())
	}
	if hs, err := h.Status(ctx); err != nil || !hs.CacheHit {
		t.Fatalf("framed resubmit was not a cache hit: %+v, %v", hs, err)
	}
	if len(got.Values) != len(want.Values) {
		t.Fatalf("%d values, want %d", len(got.Values), len(want.Values))
	}
	for i := range want.Values {
		if math.Float64bits(got.Values[i]) != math.Float64bits(want.Values[i]) {
			t.Fatalf("value %d: frame %v, JSON %v", i, got.Values[i], want.Values[i])
		}
	}
}
