package client

import (
	"bufio"
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/frame"
)

// HTTP is the remote Client: it speaks the /api/v2 wire protocol of a
// `jacobitool serve` instance — or of a whole serve cluster, when built
// with several endpoints. Job events arrive over a streaming
// newline-delimited JSON response, so Wait and Events behave like their
// in-process counterparts — no polling.
//
// Submit sends a spec with an explicit Matrix as one binary frame
// (Content-Type application/x-jacobi-frame): the spec's JSON with
// matrix.n and no data, then the n² values as raw little-endian float64s.
// The values arrive bit for bit, so the job is the one the JSON body
// would have made — same fingerprint, same result. Random specs and
// SubmitAll batches travel as JSON.
//
// Multi-endpoint behavior (NewHTTPMulti): requests go to the preferred
// endpoint and fail over to the next on a transport error (connection
// refused, reset, timeout at the socket level) — never on a structured
// API error, which is a real answer. Failover makes retried submissions
// possible, so in multi-endpoint mode every submission carries an
// idempotency key (an "auto-…" one is generated when the spec has none):
// a submit whose connection died after the server accepted it is retried
// under the same key and deduplicated server-side instead of running
// twice. Event streams that drop mid-job reconnect through the remaining
// endpoints; a reconnect replays the job's history, so a consumer may see
// duplicate events (terminal events remain reliable — Wait tolerates the
// replay).
type HTTP struct {
	bases []string
	cur   atomic.Int32
	hc    *http.Client
}

var _ Client = (*HTTP)(nil)
var _ BatchSubmitter = (*HTTP)(nil)

// NewHTTP returns a client for the server at baseURL (e.g.
// "http://127.0.0.1:8473"), using a default http.Client with no overall
// timeout — event streams are long-lived; bound individual calls with
// their contexts.
func NewHTTP(baseURL string) (*HTTP, error) {
	return NewHTTPClient(baseURL, &http.Client{})
}

// NewHTTPClient is NewHTTP with a caller-supplied http.Client (custom
// transport, TLS, proxies). The client's Timeout, if set, also cuts event
// streams short — prefer per-call contexts.
func NewHTTPClient(baseURL string, hc *http.Client) (*HTTP, error) {
	return NewHTTPMultiClient([]string{baseURL}, hc)
}

// NewHTTPMulti returns a client over several equivalent endpoints — the
// nodes of a serve cluster. Requests prefer one endpoint and fail over on
// transport errors; see the HTTP type docs for the retry and idempotency
// contract.
func NewHTTPMulti(baseURLs []string) (*HTTP, error) {
	return NewHTTPMultiClient(baseURLs, &http.Client{})
}

// NewHTTPMultiClient is NewHTTPMulti with a caller-supplied http.Client.
func NewHTTPMultiClient(baseURLs []string, hc *http.Client) (*HTTP, error) {
	if len(baseURLs) == 0 {
		return nil, fmt.Errorf("client: no base URLs")
	}
	c := &HTTP{hc: hc}
	for _, baseURL := range baseURLs {
		u, err := url.Parse(baseURL)
		if err != nil {
			return nil, fmt.Errorf("client: parse base URL: %w", err)
		}
		if u.Scheme != "http" && u.Scheme != "https" {
			return nil, fmt.Errorf("client: base URL %q: want http or https", baseURL)
		}
		c.bases = append(c.bases, strings.TrimRight(u.String(), "/"))
	}
	return c, nil
}

// base returns the i-th endpoint in preference order (0 = current
// favorite).
func (c *HTTP) base(i int) string {
	return c.bases[(int(c.cur.Load())+i)%len(c.bases)]
}

// promote makes the endpoint that just worked the favorite.
func (c *HTTP) promote(i int) {
	if i != 0 {
		c.cur.Store(int32((int(c.cur.Load()) + i) % len(c.bases)))
	}
}

// autoKey generates a submission idempotency key for multi-endpoint
// clients, making connect-error retries dedupable server-side.
func autoKey() string {
	var b [16]byte
	_, _ = rand.Read(b[:])
	return "auto-" + hex.EncodeToString(b[:])
}

// keyed stamps an idempotency key onto a spec when failover demands one.
func (c *HTTP) keyed(spec Spec) Spec {
	if len(c.bases) > 1 && spec.IdempotencyKey == "" {
		spec.IdempotencyKey = autoKey()
	}
	return spec
}

// Submit posts one job to /api/v2/jobs. With several endpoints the spec
// always travels under an idempotency key (generated if absent), so a
// connect-error retry against the next endpoint cannot double-execute.
// A spec with an explicit Matrix travels as a binary frame (see the type
// docs); any other spec as JSON.
func (c *HTTP) Submit(ctx context.Context, spec Spec) (JobHandle, error) {
	spec = c.keyed(spec)
	var st Status
	var err error
	if spec.Matrix == nil {
		err = c.doJSON(ctx, http.MethodPost, "/api/v2/jobs", spec, &st)
	} else {
		var body []byte
		if body, err = encodeFrame(spec); err != nil {
			return nil, err
		}
		err = c.do(ctx, http.MethodPost, "/api/v2/jobs", frame.ContentType, body, &st)
	}
	if err != nil {
		return nil, err
	}
	return &httpHandle{c: c, id: st.ID, reused: st.Reused}, nil
}

// batchRequest / batchResponse are the /api/v2/batch payloads.
type batchRequest struct {
	Jobs []Spec `json:"jobs"`
}
type batchResponse struct {
	Jobs []Status `json:"jobs"`
}

// SubmitAll posts a whole batch in one /api/v2/batch round trip. The
// server fails fast on the first rejected spec (the error names its
// index); earlier jobs of the batch keep running. Multi-endpoint clients
// key every entry, for the same retry safety as Submit.
func (c *HTTP) SubmitAll(ctx context.Context, specs []Spec) ([]JobHandle, error) {
	req := batchRequest{Jobs: make([]Spec, len(specs))}
	for i, spec := range specs {
		req.Jobs[i] = c.keyed(spec)
	}
	var resp batchResponse
	if err := c.doJSON(ctx, http.MethodPost, "/api/v2/batch", req, &resp); err != nil {
		return nil, err
	}
	handles := make([]JobHandle, len(resp.Jobs))
	for i, st := range resp.Jobs {
		handles[i] = &httpHandle{c: c, id: st.ID, reused: st.Reused}
	}
	return handles, nil
}

// Jobs fetches one listing page from /api/v2/jobs.
func (c *HTTP) Jobs(ctx context.Context, opts ListOptions) (*JobPage, error) {
	q := url.Values{}
	if opts.Cursor != "" {
		q.Set("cursor", opts.Cursor)
	}
	if opts.Limit > 0 {
		q.Set("limit", strconv.Itoa(opts.Limit))
	}
	path := "/api/v2/jobs"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var page JobPage
	if err := c.doJSON(ctx, http.MethodGet, path, nil, &page); err != nil {
		return nil, err
	}
	return &page, nil
}

// Metrics fetches /api/v2/metrics.
func (c *HTTP) Metrics(ctx context.Context) (*Metrics, error) {
	var m Metrics
	if err := c.doJSON(ctx, http.MethodGet, "/api/v2/metrics", nil, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// Handle attaches to an existing remote job by ID without a round trip —
// the way a watcher process reconnects to a job some other process
// submitted. An unknown ID surfaces as CodeNotFound on the first call.
func (c *HTTP) Handle(id string) JobHandle {
	return &httpHandle{c: c, id: id}
}

// Close drops idle connections. The remote server keeps running.
func (c *HTTP) Close() error {
	c.hc.CloseIdleConnections()
	return nil
}

// doJSON performs one JSON round trip, decoding structured error bodies
// into *Error. With several endpoints a transport error rotates to the
// next one (every request through here is failover-safe: GETs and DELETEs
// are idempotent, POSTs carry idempotency keys); a structured API error
// returns immediately — the server answered.
func (c *HTTP) doJSON(ctx context.Context, method, path string, in, out any) error {
	if in == nil {
		return c.do(ctx, method, path, "", nil, out)
	}
	data, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("client: encode request: %w", err)
	}
	return c.do(ctx, method, path, "application/json", data, out)
}

// do is doJSON for a request body already encoded as contentType ("" for
// no body).
func (c *HTTP) do(ctx context.Context, method, path, contentType string, data []byte, out any) error {
	var lastErr error
	for i := 0; i < len(c.bases); i++ {
		var body io.Reader
		if contentType != "" {
			body = bytes.NewReader(data)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base(i)+path, body)
		if err != nil {
			return fmt.Errorf("client: build request: %w", err)
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			lastErr = fmt.Errorf("client: %s %s: %w", method, path, err)
			if ctx.Err() != nil {
				return lastErr
			}
			continue // transport error: the next endpoint may be alive
		}
		c.promote(i)
		defer resp.Body.Close()
		if resp.StatusCode >= 300 {
			return decodeError(resp)
		}
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				return fmt.Errorf("client: decode %s %s response: %w", method, path, err)
			}
		}
		return nil
	}
	return lastErr
}

// decodeError lifts a non-2xx response into *Error, falling back to the
// raw body when it is not a structured error.
func decodeError(resp *http.Response) error {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	var e Error
	if json.Unmarshal(data, &e) == nil && e.Code != "" {
		e.HTTPStatus = resp.StatusCode
		return &e
	}
	return &Error{
		Code:       CodeInternal,
		Message:    fmt.Sprintf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data))),
		HTTPStatus: resp.StatusCode,
	}
}

// httpHandle tracks one remote job by ID.
type httpHandle struct {
	c      *HTTP
	id     string
	reused bool
}

func (h *httpHandle) ID() string { return h.id }

func (h *httpHandle) Status(ctx context.Context) (*Status, error) {
	var st Status
	if err := h.c.doJSON(ctx, http.MethodGet, "/api/v2/jobs/"+url.PathEscape(h.id), nil, &st); err != nil {
		return nil, err
	}
	st.Reused = h.reused
	return &st, nil
}

func (h *httpHandle) Result(ctx context.Context) (*Result, error) {
	var res Result
	if err := h.c.doJSON(ctx, http.MethodGet, "/api/v2/jobs/"+url.PathEscape(h.id)+"/result", nil, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

func (h *httpHandle) Cancel(ctx context.Context) error {
	return h.c.doJSON(ctx, http.MethodDelete, "/api/v2/jobs/"+url.PathEscape(h.id), nil, nil)
}

// Wait consumes the job's event stream until the terminal event, then
// fetches the result — one long-lived request instead of a poll loop.
// Reconnect replays (multi-endpoint mode) are harmless here: the first
// terminal event decides.
func (h *httpHandle) Wait(ctx context.Context) (*Result, error) {
	events, err := h.Events(ctx)
	if err != nil {
		return nil, err
	}
	var terminal *Event
	for ev := range events {
		if ev.Type.Terminal() && terminal == nil {
			ev := ev
			terminal = &ev
			// Keep draining: the sender closes right after the terminal
			// event, and a clean drain releases the stream's goroutine.
		}
	}
	if terminal == nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, errf(CodeStreamEnded, "", "job %s: event stream ended before a terminal event", h.id)
	}
	switch terminal.Type {
	case EventDone:
		return h.Result(ctx)
	case EventCanceled:
		return nil, errf(CodeJobCanceled, "", "job %s: %s", h.id, terminalCause(terminal))
	default:
		return nil, errf(CodeJobFailed, "", "job %s: %s", h.id, terminalCause(terminal))
	}
}

func terminalCause(ev *Event) string {
	if ev.Error != "" {
		return ev.Error
	}
	return string(ev.Type)
}

// streamReconnectBackoff paces multi-endpoint stream reopen attempts; a
// dead node's jobs reappear on the adopting survivor within its failure-
// detection window, so the reconnect loop gets several rounds across all
// endpoints before giving up.
const streamReconnectBackoff = 250 * time.Millisecond

// Events opens the job's streaming events endpoint (newline-delimited
// JSON) and decodes it into a channel: history replay first, then live
// events, closed after the terminal event or when ctx ends. A mid-stream
// cancellation releases the response body and the decoding goroutine
// promptly: the body is closed from an AfterFunc the moment ctx ends, so
// the scanner unblocks even under a caller-supplied http.Client whose
// transport does not propagate request-context cancellation to in-flight
// body reads (the conformance suite asserts the no-leak property).
//
// With several endpoints, a stream that ends without a terminal event
// (its node died) reconnects through the remaining endpoints — bounded
// attempts with backoff. Each reconnect replays the job's history, so
// consumers may observe duplicate events; events are NOT deduplicated by
// sequence number, because a job adopted by a surviving node renumbers
// its stream. Single-endpoint clients never reconnect: the stream ends
// when the server's does, exactly as before.
func (h *httpHandle) Events(ctx context.Context) (<-chan Event, error) {
	resp, err := h.openStream(ctx)
	if err != nil {
		return nil, err
	}
	out := make(chan Event)
	go func() {
		defer close(out)
		attempts := 4 * len(h.c.bases)
		for {
			terminal, _ := h.pumpStream(ctx, resp, out)
			if terminal || ctx.Err() != nil || len(h.c.bases) == 1 {
				return
			}
			// The stream broke mid-job. Reopen against the surviving
			// endpoints; a structured API error other than not-found is a
			// real answer and ends the stream.
			var rerr error
			resp = nil
			for resp == nil && attempts > 0 {
				attempts--
				select {
				case <-time.After(streamReconnectBackoff):
				case <-ctx.Done():
					return
				}
				resp, rerr = h.openStream(ctx)
				if rerr != nil {
					var ce *Error
					if errors.As(rerr, &ce) && ce.Code != CodeNotFound {
						return
					}
					resp = nil
				}
			}
			if resp == nil {
				return
			}
		}
	}()
	return out, nil
}

// openStream opens the NDJSON events response, failing over across
// endpoints on transport errors.
func (h *httpHandle) openStream(ctx context.Context) (*http.Response, error) {
	var lastErr error
	for i := 0; i < len(h.c.bases); i++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			h.c.base(i)+"/api/v2/jobs/"+url.PathEscape(h.id)+"/events", nil)
		if err != nil {
			return nil, fmt.Errorf("client: build events request: %w", err)
		}
		req.Header.Set("Accept", "application/x-ndjson")
		resp, err := h.c.hc.Do(req)
		if err != nil {
			lastErr = fmt.Errorf("client: open event stream: %w", err)
			if ctx.Err() != nil {
				return nil, lastErr
			}
			continue
		}
		if resp.StatusCode >= 300 {
			err := decodeError(resp)
			resp.Body.Close()
			// Not-found fails over too: right after a node death the job
			// may only exist on the adopting survivor.
			var ce *Error
			if errors.As(err, &ce) && ce.Code == CodeNotFound && i+1 < len(h.c.bases) {
				lastErr = err
				continue
			}
			return nil, err
		}
		h.c.promote(i)
		return resp, nil
	}
	return nil, lastErr
}

// pumpStream decodes one open stream into out until it ends. Reports
// whether a terminal event was delivered, and how many events were.
func (h *httpHandle) pumpStream(ctx context.Context, resp *http.Response, out chan<- Event) (terminal bool, delivered int) {
	stopClose := context.AfterFunc(ctx, func() { resp.Body.Close() })
	defer stopClose()
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return false, delivered // stream corrupted; treat as broken
		}
		select {
		case out <- ev:
			delivered++
		case <-ctx.Done():
			return false, delivered
		}
		if ev.Type.Terminal() {
			return true, delivered
		}
	}
	return false, delivered
}
