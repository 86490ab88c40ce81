package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/frame"
	"repro/internal/metrics"
)

// The cluster HTTP surface: Handler wraps a node's local API handler
// (internal/httpapi) with consistent-hash routing and mounts the
// intra-cluster endpoints under /internal/cluster/.
//
// Routing policy:
//
//   - POST /api/v2/jobs with an idempotency key proxies to the key's ring
//     owner (so the same key always lands on the same node and dedups
//     there); keyless submits and every submit arriving *from* a peer
//     (X-Jacobi-Cluster-From) run locally. A dead or unreachable owner
//     redirects the key to its adopter — the first alive replica
//     successor — so a retried submission still dedups against the
//     original acceptance instead of double-executing on a bystander.
//   - /api/v2/jobs/{id}... routes by the ID's node qualifier ("job-b-7"
//     belongs to node b) — a dead owner's jobs are looked up on its
//     adopter instead.
//   - A proxy transport error falls back to local handling (counted in
//     proxy_errors); routing is an optimization, never a failure source.
//
// Locally handled submits are acknowledged through the accept-before-ack
// barrier: the response is captured, the shipper flushes (the submission's
// journal records reach the replicas), and only then does the 202 go out.
// A node SIGKILL'd after the ack therefore cannot take an accepted job
// with it — which is what makes the client's retry-on-connect-error safe
// from double executions (the kill-a-node conformance suite pins this).

// fromHeader marks a request already proxied once; receivers always serve
// it locally, so a stale ring cannot bounce a request forever.
const fromHeader = "X-Jacobi-Cluster-From"

// maxSubmitBody mirrors the API's own submit bound.
const maxSubmitBody = 512 << 20

// Handler wraps the node's local API surface with cluster routing.
func (n *Node) Handler(api http.Handler) http.Handler {
	mux := http.NewServeMux()

	// Intra-cluster control plane.
	mux.HandleFunc("GET /internal/cluster/health", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(EncodeMembership(n.membership()))
	})
	mux.HandleFunc("POST /internal/cluster/ship", n.handleShip)
	mux.HandleFunc("POST /internal/cluster/ckpt", n.handleCkpt)
	mux.HandleFunc("POST /internal/cluster/steal", n.handleSteal)
	mux.HandleFunc("POST /internal/cluster/lent/{id}", n.handleLent)
	mux.HandleFunc("POST /internal/cluster/adopt/{peer}", func(w http.ResponseWriter, r *http.Request) {
		stats := n.AdoptPeer(r.PathValue("peer"))
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(stats)
	})

	// Routed data plane.
	mux.HandleFunc("POST /api/v2/jobs", func(w http.ResponseWriter, r *http.Request) {
		n.routeSubmit(w, r, api)
	})
	mux.HandleFunc("POST /api/v2/batch", func(w http.ResponseWriter, r *http.Request) {
		// Batches stay local (their jobs may hash anywhere; splitting a
		// batch across owners is not worth the failure modes) but still
		// ack behind the replication barrier.
		n.ctr.routedLocal.Add(1)
		n.serveLocalFlushed(w, r, api)
	})
	byID := func(w http.ResponseWriter, r *http.Request) {
		n.routeByID(w, r, r.PathValue("id"), api)
	}
	mux.HandleFunc("GET /api/v2/jobs/{id}", byID)
	mux.HandleFunc("DELETE /api/v2/jobs/{id}", byID)
	mux.HandleFunc("GET /api/v2/jobs/{id}/result", byID)
	mux.HandleFunc("GET /api/v2/jobs/{id}/events", byID)

	// Metrics gain the per-node cluster section.
	snapshot := func() metrics.Snapshot {
		m := n.cfg.Service.Metrics()
		m.Cluster = n.Metrics()
		return m
	}
	mux.HandleFunc("GET /api/v2/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(snapshot())
	})
	mux.HandleFunc("GET /metrics", metrics.Handler(snapshot))

	// Everything else — listings and healthz — serves locally.
	mux.Handle("/", api)
	return mux
}

// handleShip receives one peer's journal shipment into its side journal.
func (n *Node) handleShip(w http.ResponseWriter, r *http.Request) {
	if n.cfg.Store == nil {
		http.Error(w, "replication disabled (no store)", http.StatusNotImplemented)
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSubmitBody))
	if err != nil {
		http.Error(w, "read shipment: "+err.Error(), http.StatusBadRequest)
		return
	}
	s, err := DecodeShipment(data)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if _, known := n.peers[s.Source]; !known {
		http.Error(w, "unknown source "+s.Source, http.StatusForbidden)
		return
	}
	l, err := n.sidelogFor(s.Source)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	for _, rec := range s.Records {
		if err := l.Append(rec); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	n.ctr.recordsReceived.Add(int64(len(s.Records)))
	w.WriteHeader(http.StatusOK)
}

// handleCkpt receives one peer job's checkpoint image.
func (n *Node) handleCkpt(w http.ResponseWriter, r *http.Request) {
	if n.cfg.Store == nil {
		http.Error(w, "replication disabled (no store)", http.StatusNotImplemented)
		return
	}
	source := r.URL.Query().Get("source")
	id := r.URL.Query().Get("id")
	if _, known := n.peers[source]; !known {
		http.Error(w, "unknown source "+source, http.StatusForbidden)
		return
	}
	image, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSubmitBody))
	if err != nil {
		http.Error(w, "read checkpoint: "+err.Error(), http.StatusBadRequest)
		return
	}
	if err := n.saveReplicaCheckpoint(source, id, image); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.WriteHeader(http.StatusOK)
}

// routeSubmit routes one keyed submission to its ring owner.
func (n *Node) routeSubmit(w http.ResponseWriter, r *http.Request, api http.Handler) {
	if r.Header.Get(fromHeader) != "" {
		n.serveLocalFlushed(w, r, api)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSubmitBody))
	if err != nil {
		http.Error(w, "read request: "+err.Error(), http.StatusBadRequest)
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	var probe struct {
		Key string `json:"idempotency_key"`
	}
	// A framed submit carries its key in the frame's JSON header; reading
	// the header alone skips the CRC pass over the matrix, which the
	// serving node's API checks. A body the probe cannot parse still goes
	// to the local API, which produces the structured decode error.
	hdr := body
	if frame.Is(body) {
		hdr, _, _ = frame.Header(body)
	}
	_ = json.Unmarshal(hdr, &probe)
	if probe.Key != "" {
		for _, target := range n.submitTargets(probe.Key) {
			if n.proxy(w, r, target, body) {
				return
			}
			n.ctr.proxyErrors.Add(1)
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	n.ctr.routedLocal.Add(1)
	n.serveLocalFlushed(w, r, api)
}

// submitTargets lists the peers a keyed submit should try, in order: the
// key's ring owner while it is believed alive, then the owner's adopter
// (the first alive replica successor). Keys whose chain ends at this node
// — or exhausts without a live target — run locally. Routing a dead
// owner's keys to its adopter is what keeps the idempotency dedup intact
// across a node death: the adopter replays the owner's journal, so a
// retried submission meets the original acceptance there.
func (n *Node) submitTargets(key string) []Peer {
	owner := n.ring.Owner(key)
	if owner == "" || owner == n.self.ID {
		return nil
	}
	var out []Peer
	if n.alive(owner) {
		if p, ok := n.peers[owner]; ok {
			out = append(out, p)
		}
	}
	if p, ok := n.adopterFor(owner); ok {
		out = append(out, p)
	}
	return out
}

// adopterFor returns the peer expected to hold a dead node's jobs — the
// first alive member of its replica successor set, mirroring the health
// loop's adoption rule. ok is false when that node is this one (serve
// locally) or when no replica holder is alive.
func (n *Node) adopterFor(dead string) (Peer, bool) {
	for _, id := range n.ring.Successors(dead, n.cfg.Replicas) {
		if id == n.self.ID {
			return Peer{}, false
		}
		if n.alive(id) {
			p, ok := n.peers[id]
			return p, ok
		}
	}
	return Peer{}, false
}

// routeByID routes a job request to the node the ID names — or, when that
// node is dead, to its adopter — falling back to local handling when the
// target is this node, unknown, unreachable, or the request already
// hopped once.
func (n *Node) routeByID(w http.ResponseWriter, r *http.Request, id string, api http.Handler) {
	owner := ownerOfID(id)
	if r.Header.Get(fromHeader) != "" || owner == "" || owner == n.self.ID {
		n.ctr.routedLocal.Add(1)
		api.ServeHTTP(w, r)
		return
	}
	var target Peer
	var ok bool
	if n.alive(owner) {
		target, ok = n.peers[owner]
	} else {
		target, ok = n.adopterFor(owner)
	}
	if !ok {
		n.ctr.routedLocal.Add(1)
		api.ServeHTTP(w, r)
		return
	}
	if !n.proxy(w, r, target, nil) {
		n.ctr.proxyErrors.Add(1)
		api.ServeHTTP(w, r)
	}
}

// ownerOfID extracts the node qualifier from a cluster job ID
// ("job-<node>-<seq>"); "" for single-node IDs ("job-7") or foreign
// shapes.
func ownerOfID(id string) string {
	rest, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return ""
	}
	i := strings.LastIndexByte(rest, '-')
	if i <= 0 {
		return ""
	}
	return rest[:i]
}

// proxy forwards the request to a peer, streaming the response (event
// streams flush per write). Returns false if the peer was unreachable
// before any response byte went out — the caller then serves locally.
func (n *Node) proxy(w http.ResponseWriter, r *http.Request, p Peer, body []byte) bool {
	u := p.URL + r.URL.Path
	if r.URL.RawQuery != "" {
		u += "?" + r.URL.RawQuery
	}
	var rd io.Reader = r.Body
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, u, rd)
	if err != nil {
		return false
	}
	req.Header = r.Header.Clone()
	req.Header.Set(fromHeader, n.self.ID)
	resp, err := n.cfg.HTTPClient.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	n.ctr.routedProxied.Add(1)
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		nr, rerr := resp.Body.Read(buf)
		if nr > 0 {
			if _, werr := w.Write(buf[:nr]); werr != nil {
				return true
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if rerr != nil {
			return true
		}
	}
}

// serveLocalFlushed runs the local API handler, then (when replication is
// on) holds the response until the shipper has delivered every journal
// record appended so far — the accept-before-ack barrier.
func (n *Node) serveLocalFlushed(w http.ResponseWriter, r *http.Request, api http.Handler) {
	if n.ship == nil {
		api.ServeHTTP(w, r)
		return
	}
	rec := newRecorder()
	api.ServeHTTP(rec, r)
	n.ship.Flush()
	rec.replay(w)
}

// recorder buffers one response for replay after the replication barrier.
// Submit responses are small JSON bodies; streaming endpoints never go
// through it.
type recorder struct {
	status int
	header http.Header
	body   *bytes.Buffer
}

func newRecorder() *recorder {
	return &recorder{status: http.StatusOK, header: make(http.Header), body: &bytes.Buffer{}}
}

func (rec *recorder) Header() http.Header         { return rec.header }
func (rec *recorder) WriteHeader(code int)        { rec.status = code }
func (rec *recorder) Write(p []byte) (int, error) { return rec.body.Write(p) }

func (rec *recorder) replay(w http.ResponseWriter) {
	for k, vs := range rec.header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(rec.status)
	_, _ = w.Write(rec.body.Bytes())
}

// OwnerURL resolves the base URL of a key's ring owner — exported for the
// CLI's multi-endpoint tooling and tests. ok is false for an empty ring.
func (n *Node) OwnerURL(key string) (Peer, bool) {
	owner := n.ring.Owner(key)
	if owner == "" {
		return Peer{}, false
	}
	if owner == n.self.ID {
		return n.self, true
	}
	p, ok := n.peers[owner]
	return p, ok
}

// ParsePeers parses the -cluster flag value: comma-separated
// "<id>=<url>" entries.
func ParsePeers(s string) ([]Peer, error) {
	var out []Peer
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, rawurl, ok := strings.Cut(part, "=")
		if !ok || strings.TrimSpace(id) == "" || strings.TrimSpace(rawurl) == "" {
			return nil, fmt.Errorf("cluster: malformed peer %q (want <id>=<url>)", part)
		}
		out = append(out, Peer{ID: strings.TrimSpace(id), URL: strings.TrimRight(strings.TrimSpace(rawurl), "/")})
	}
	return out, nil
}
