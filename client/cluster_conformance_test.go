package client_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/client"
	"repro/internal/cluster"
	"repro/internal/httpapi"
	"repro/internal/matrix"
	"repro/internal/service"
	"repro/internal/store"
)

// clusterNode is one in-process cluster member: a durable service behind a
// real listener, wrapped by the cluster routing layer. The handler slot is
// an atomic.Value because the listener must exist (peers need URLs) before
// cluster.New can run; until then requests get a 503.
type clusterNode struct {
	id      string
	dir     string
	st      *store.Store
	svc     *service.Service
	node    *cluster.Node
	srv     *httptest.Server
	handler atomic.Value // handlerBox
	killed  bool
}

// handlerBox gives atomic.Value a single concrete type to hold across the
// boot-placeholder and the real cluster handler.
type handlerBox struct{ h http.Handler }

func (tn *clusterNode) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tn.handler.Load().(handlerBox).h.ServeHTTP(w, r)
}

// kill simulates SIGKILL. The service dies first — a crash close: the
// running solve is canceled without a journaled terminal record, exactly
// what a killed process leaves behind. Stopping the solve before the
// listener and shipper keeps the kill atomic the way a real SIGKILL is:
// nothing solved after this instant can journal or ship a terminal.
func (tn *clusterNode) kill() {
	tn.killed = true
	tn.svc.Close()
	tn.srv.CloseClientConnections()
	tn.srv.Close()
	tn.node.Close()
	tn.st.Close()
}

// startCluster boots a 3-node cluster (IDs a, b, c) with aggressive
// failure-detection and steal cadences so the conformance scenarios run in
// test time. Each node has one worker, a durable store, and journal
// shipping to one ring successor.
func startCluster(t *testing.T, ids []string) map[string]*clusterNode {
	t.Helper()
	// A whole cluster lives in this one process: N solves plus every
	// node's HTTP handlers, health probes, shippers and the test driver
	// itself. On GOMAXPROCS=1 the emulated backend's channel ring
	// monopolizes the only P through the scheduler's runnext fast path
	// (each handoff front-runs the run queue), starving the control
	// plane — checkpoint shipping, the kill-window poll — until the
	// solve finishes. Real deployments give each node its own process;
	// a second P restores that independence here.
	if runtime.GOMAXPROCS(0) < 2 {
		prev := runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
	nodes := make(map[string]*clusterNode, len(ids))
	for _, id := range ids {
		tn := &clusterNode{id: id, dir: t.TempDir()}
		tn.handler.Store(handlerBox{h: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "booting", http.StatusServiceUnavailable)
		})})
		st, err := store.Open(tn.dir)
		if err != nil {
			t.Fatal(err)
		}
		tn.st = st
		tn.svc = service.New(service.Config{Workers: 1, Store: st, NodeID: id, CheckpointEvery: 1})
		tn.srv = httptest.NewServer(tn)
		nodes[id] = tn
	}
	peers := make([]cluster.Peer, 0, len(ids))
	for _, id := range ids {
		peers = append(peers, cluster.Peer{ID: id, URL: nodes[id].srv.URL})
	}
	for _, id := range ids {
		tn := nodes[id]
		node, err := cluster.New(cluster.Config{
			Self:           id,
			Peers:          peers,
			Service:        tn.svc,
			Store:          tn.st,
			HealthInterval: 100 * time.Millisecond,
			FailAfter:      2,
			StealInterval:  50 * time.Millisecond,
			StealMax:       2,
			LeaseFor:       10 * time.Second,
			Logf:           t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		tn.node = node
		tn.handler.Store(handlerBox{h: node.Handler(httpapi.NewHandler(tn.svc))})
	}
	t.Cleanup(func() {
		for _, tn := range nodes {
			if tn.killed {
				continue
			}
			tn.srv.Close()
			tn.node.Close()
			tn.svc.Close()
			tn.st.Close()
		}
	})
	return nodes
}

// keyOwnedBy derives an idempotency key the ring assigns to owner.
func keyOwnedBy(t *testing.T, r *cluster.Ring, owner, prefix string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("%s-%d", prefix, i)
		if r.Owner(k) == owner {
			return k
		}
	}
	t.Fatalf("no key with owner %s in 10000 tries", owner)
	return ""
}

// clusterURLs returns the nodes' base URLs, excluding any in skip.
func clusterURLs(nodes map[string]*clusterNode, ids []string, skip string) []string {
	urls := make([]string, 0, len(ids))
	for _, id := range ids {
		if id != skip {
			urls = append(urls, nodes[id].srv.URL)
		}
	}
	return urls
}

// TestConformanceClusterKillNode is the tentpole scenario: a 3-node
// cluster takes keyed jobs spread across owners, one node is killed
// mid-solve, and every job still reaches a terminal state with the
// bit-identical result an uninterrupted solve produces — the victim's
// in-flight job resumes on the adopting replica from its last shipped
// checkpoint, its queued jobs re-run from the shipped journal, and the
// per-node metrics account balances cluster-wide after the dust settles.
func TestConformanceClusterKillNode(t *testing.T) {
	ids := []string{"a", "b", "c"}
	ring := cluster.NewRing(ids, 0)
	const victim = "b"
	adopter := ring.Successors(victim, 1)[0]

	// One long-running job owned by the victim (the kill lands mid-solve),
	// two quick jobs queued behind it, and one job per survivor.
	running := slowSpec(501)
	// The kill window needs rotation-ACTIVE sweeps: once the off-norm
	// bottoms out near machine epsilon (sweep ~45 for these matrices) the
	// remaining sweeps rotate nothing and fly by in microseconds, closing
	// the window no matter how large MaxSweeps is. The N below keeps
	// every one of the 40 capped sweeps busy, sized per detector — the
	// race detector slows the O(N³) solve ~10x, so the plain-build run
	// needs a larger matrix to hold the window open through the pre-kill
	// submits (the in-test guard fails loudly if it ever closes anyway).
	running.Random.N = killWindowN
	running.IdempotencyKey = keyOwnedBy(t, ring, victim, "kn-run")
	specs := []client.Spec{running}
	for i, owner := range []string{victim, victim, "a", "c"} {
		s := slowSpec(int64(600 + i))
		s.MaxSweeps = 6
		s.IdempotencyKey = keyOwnedBy(t, ring, owner, fmt.Sprintf("kn-q%d", i))
		specs = append(specs, s)
	}
	controls := make([]*client.Result, len(specs))
	for i, s := range specs {
		controls[i] = controlResult(t, s)
	}

	nodes := startCluster(t, ids)
	cli, err := client.NewHTTPMulti(clusterURLs(nodes, ids, ""))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()

	// The long job goes in first so the victim's worker starts it at once;
	// the rest submit while it solves, keeping the pre-kill critical path
	// short (every serial step here eats into the kill window).
	handles := make([]client.JobHandle, len(specs))
	h0, err := cli.Submit(ctx, specs[0])
	if err != nil {
		t.Fatalf("submit running job: %v", err)
	}
	handles[0] = h0
	if want := "job-" + victim + "-"; !strings.HasPrefix(h0.ID(), want) {
		t.Fatalf("running job got ID %s, want owner prefix %s", h0.ID(), want)
	}

	// Require the running solve's checkpoint to have replicated to the
	// adopter: that both proves the job passed sweep 1 and pins the
	// deterministic resume point the adoption must use.
	ckpt := filepath.Join(nodes[adopter].dir, "replica", victim, h0.ID()+".jckp")
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := os.Stat(ckpt); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("checkpoint %s never replicated to adopter %s", ckpt, adopter)
		}
		time.Sleep(20 * time.Millisecond)
	}

	for i := 1; i < len(specs); i++ {
		h, err := cli.Submit(ctx, specs[i])
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		handles[i] = h
	}
	// Guard the scenario itself: a kill after the job already finished
	// would pass vacuously without exercising resume-after-adoption.
	if st, err := handles[0].Status(ctx); err != nil || st.State != client.StateRunning {
		t.Fatalf("kill window closed: running job is %+v (%v) — lengthen the spec", st, err)
	}
	nodes[victim].kill()
	// The health prober finds the death on its own; the explicit (and
	// idempotent) adoption call just removes the detection latency from
	// the test clock.
	nodes[adopter].node.AdoptPeer(victim)

	results := make([]*client.Result, len(handles))
	for i, h := range handles {
		res, err := h.Wait(ctx)
		if err != nil {
			t.Fatalf("job %d (%s): %v", i, h.ID(), err)
		}
		results[i] = res
		if !bytesEqualFloats(res.Values, controls[i].Values) ||
			res.Sweeps != controls[i].Sweeps || res.Rotations != controls[i].Rotations ||
			res.Converged != controls[i].Converged {
			t.Fatalf("job %d (%s): result diverged from uninterrupted control", i, h.ID())
		}
	}
	st, err := handles[0].Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	assertResumedResult(t, st, results[0], controls[0], 1)

	// Drain, then check the per-node accounting invariant on survivors:
	// everything a node accepted reached exactly one terminal state.
	deadline = time.Now().Add(20 * time.Second)
	for {
		busy := false
		for _, id := range ids {
			if id == victim {
				continue
			}
			m := nodes[id].svc.Metrics()
			if m.QueueDepth != 0 || m.InFlight != 0 {
				busy = true
			}
		}
		if !busy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("survivors never drained")
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, id := range ids {
		if id == victim {
			continue
		}
		m := nodes[id].svc.Metrics()
		if got := m.Completed + m.Failed + m.Canceled; got != m.Submitted {
			t.Fatalf("node %s: terminal %d != submitted %d (done %d failed %d canceled %d)",
				id, got, m.Submitted, m.Completed, m.Failed, m.Canceled)
		}
	}
	if got := nodes[adopter].node.Metrics().Adoptions; got < 1 {
		t.Fatalf("adopter %s recorded %d adoptions, want >= 1", adopter, got)
	}
	// The health prober must have noticed the death on its own terms too:
	// each survivor eventually gauges exactly one live peer.
	deadline = time.Now().Add(10 * time.Second)
	for {
		stale := false
		for _, id := range ids {
			if id != victim && nodes[id].node.Metrics().Alive != 1 {
				stale = true
			}
		}
		if !stale {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("survivors never marked %s dead (alive gauges: a=%d c=%d)",
				victim, nodes["a"].node.Metrics().Alive, nodes["c"].node.Metrics().Alive)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestConformanceClusterNoDoubleSubmit pins exactly-once acceptance across
// a node death: the owner accepts and journals a keyed submission but dies
// before the client sees the ack. The client's retry against the survivors
// must land on the adopter and dedup against the original acceptance —
// same job ID, Reused set, one execution cluster-wide — never a second
// job on a bystander node.
func TestConformanceClusterNoDoubleSubmit(t *testing.T) {
	ids := []string{"a", "b", "c"}
	ring := cluster.NewRing(ids, 0)
	const victim = "b"
	adopter := ring.Successors(victim, 1)[0]

	spec := slowSpec(701)
	spec.MaxSweeps = 6
	spec.IdempotencyKey = keyOwnedBy(t, ring, victim, "nds")
	control := controlResult(t, spec)

	nodes := startCluster(t, ids)

	// Accept-before-ack: drive the submission straight into the victim's
	// handler and discard the response — from the client's point of view
	// the ack was lost in the crash. The Flush barrier inside the cluster
	// handler guarantees the journal record reached the replica before
	// this returns.
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	nodes[victim].ServeHTTP(rec, httptest.NewRequest("POST", "/api/v2/jobs", bytes.NewReader(body)))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("victim submit: status %d, body %s", rec.Code, rec.Body.String())
	}
	var accepted client.Status
	if err := json.Unmarshal(rec.Body.Bytes(), &accepted); err != nil {
		t.Fatal(err)
	}

	nodes[victim].kill()
	nodes[adopter].node.AdoptPeer(victim)

	// Retry against the survivors, exactly as a failing-over client would.
	cli, err := client.NewHTTPMulti(clusterURLs(nodes, ids, victim))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	h, err := cli.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if h.ID() != accepted.ID {
		t.Fatalf("retry created job %s, want the original acceptance %s", h.ID(), accepted.ID)
	}
	st, err := h.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Reused {
		t.Fatalf("retry of key %q was not deduped (Reused=false)", spec.IdempotencyKey)
	}

	res, err := h.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytesEqualFloats(res.Values, control.Values) || res.Sweeps != control.Sweeps {
		t.Fatal("adopted execution diverged from uninterrupted control")
	}

	// Exactly one acceptance cluster-wide: the adopter holds the one job —
	// as a live adoption (counts as submitted) or, if the solve beat the
	// kill, as a recovered terminal — and the bystander survivor holds
	// nothing (stolen work, if any, stays on the lender's books).
	for _, id := range ids {
		if id == victim {
			continue
		}
		m := nodes[id].svc.Metrics()
		got := m.Submitted + m.RecoveredDone + m.RecoveredFailed + m.RecoveredCanceled
		want := int64(0)
		if id == adopter {
			want = 1
		}
		if got != want {
			t.Fatalf("node %s: holds %d accepted jobs, want %d — the key double-executed", id, got, want)
		}
	}
}

// TestConformanceClusterFramedKeyRouting: a keyed explicit-matrix submit
// travels as a frame, whose key the cluster router must read from the
// frame header. Sent to a non-owner it is proxied to the ring owner, and
// a same-key retry through the same non-owner meets the original job
// there: Reused, one execution cluster-wide.
func TestConformanceClusterFramedKeyRouting(t *testing.T) {
	ids := []string{"a", "b", "c"}
	ring := cluster.NewRing(ids, 0)
	const owner, entry = "a", "b"
	a := matrix.RandomSymmetric(16, rand.New(rand.NewSource(71)))
	spec := client.Spec{
		Matrix:         &client.MatrixSpec{N: 16, Data: a.Data},
		Dim:            1,
		Backend:        "emulated",
		IdempotencyKey: keyOwnedBy(t, ring, owner, "framed"),
	}
	control := controlResult(t, spec)

	nodes := startCluster(t, ids)
	cli, err := client.NewHTTP(nodes[entry].srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	proxied := nodes[entry].node.Metrics().RoutedProxied
	h, err := cli.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := nodes[entry].node.Metrics().RoutedProxied; got != proxied+1 {
		t.Fatalf("routed_proxied moved %d -> %d, want one proxied submit", proxied, got)
	}
	if _, ok := nodes[owner].svc.Job(h.ID()); !ok {
		t.Fatalf("job %s is not on the key's owner %s", h.ID(), owner)
	}
	res, err := h.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytesEqualFloats(res.Values, control.Values) {
		t.Fatal("framed submit diverged from the control solve")
	}

	retry, err := cli.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	st, err := retry.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if retry.ID() != h.ID() || !st.Reused {
		t.Fatalf("retry got job %s (reused=%v), want the original %s reused", retry.ID(), st.Reused, h.ID())
	}
	for _, id := range ids {
		want := int64(0)
		if id == owner {
			want = 1
		}
		if got := nodes[id].svc.Metrics().Submitted; got != want {
			t.Fatalf("node %s accepted %d jobs, want %d", id, got, want)
		}
	}
}

// bytesEqualFloats compares eigenvalue slices bit-for-bit.
func bytesEqualFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
