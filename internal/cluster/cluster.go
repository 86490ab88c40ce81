package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/service"
	"repro/internal/store"
)

// Config wires one cluster node.
type Config struct {
	// Self is this node's ID; it must appear in Peers.
	Self string
	// Peers is the full static member list, self included. Order does not
	// matter (the hash ring depends only on the set).
	Peers []Peer
	// Service is the local solve service (already constructed, typically
	// with Config.NodeID == Self so job IDs carry the owner).
	Service *service.Service
	// Store, when non-nil, enables journal-shipping replication: every
	// fsync'd append is forwarded to this node's ring successors, and
	// their shipments land in side journals under Store.Dir()/replica/.
	// Nil runs the node with routing and stealing only — a peer death
	// then loses that peer's unfinished jobs, exactly like a standalone
	// serve without -data.
	Store *store.Store
	// Replicas is how many ring successors receive this node's journal
	// (and hold adoption duty when it dies). Default 1.
	Replicas int
	// VNodes is the ring's virtual points per node; 0 selects
	// DefaultVNodes.
	VNodes int
	// HealthInterval is the peer probe cadence (default 500ms); FailAfter
	// consecutive probe failures declare a peer dead (default 3).
	HealthInterval time.Duration
	FailAfter      int
	// StealInterval is how often an idle node goes looking for queued work
	// on peers (default 250ms); StealMax caps jobs taken per attempt
	// (default 4); LeaseFor is the loan lease requested from the victim
	// (default 30s — an expired lease re-queues the job there).
	StealInterval time.Duration
	StealMax      int
	LeaseFor      time.Duration
	// HTTPClient overrides the intra-cluster HTTP client (tests inject
	// httptest transports); nil uses a plain http.Client.
	HTTPClient *http.Client
	// Logf receives operational log lines; nil logs to stderr.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 500 * time.Millisecond
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 3
	}
	if c.StealInterval <= 0 {
		c.StealInterval = 250 * time.Millisecond
	}
	if c.StealMax <= 0 {
		c.StealMax = 4
	}
	if c.LeaseFor <= 0 {
		c.LeaseFor = 30 * time.Second
	}
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{}
	}
	if c.Logf == nil {
		c.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "cluster: "+format+"\n", args...)
		}
	}
	return c
}

// opTimeout bounds one intra-cluster control round trip (health probe,
// shipment POST, steal request). Proxied client requests are NOT bounded
// by it — an event stream proxies for as long as the client watches.
const opTimeout = 5 * time.Second

// Node is one cluster member: it routes submissions to owners, ships its
// journal to replicas, probes peers, adopts dead peers' shipped journals,
// and steals queued work when idle. Create with New, wrap the node's HTTP
// surface with Handler, stop with Close (before closing the Service).
type Node struct {
	cfg   Config
	self  Peer
	peers map[string]Peer // other members, by ID
	ring  *Ring
	gen   uint64
	ctr   counters

	mu      sync.Mutex
	down    map[string]int
	dead    map[string]bool
	adopted map[string]bool
	logs    map[string]*store.SideLog

	ship *shipper
	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// New builds and starts a cluster node: observers install on the store,
// and the health, steal and shipper loops start. The Service must already
// be running; install the node before serving traffic.
func New(cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	if cfg.Service == nil {
		return nil, errors.New("cluster: Config.Service is required")
	}
	ids := make([]string, 0, len(cfg.Peers))
	n := &Node{
		cfg:     cfg,
		peers:   make(map[string]Peer),
		gen:     uint64(time.Now().UnixNano()),
		down:    make(map[string]int),
		dead:    make(map[string]bool),
		adopted: make(map[string]bool),
		logs:    make(map[string]*store.SideLog),
		stop:    make(chan struct{}),
	}
	for _, p := range cfg.Peers {
		if p.ID == "" {
			return nil, errors.New("cluster: peer with empty ID")
		}
		if p.ID != filepath.Base(p.ID) || p.ID == "." || p.ID == ".." {
			return nil, fmt.Errorf("cluster: peer ID %q is not a plain name", p.ID)
		}
		if _, err := url.Parse(p.URL); p.URL == "" || err != nil {
			return nil, fmt.Errorf("cluster: peer %s has unusable URL %q", p.ID, p.URL)
		}
		ids = append(ids, p.ID)
		if p.ID == cfg.Self {
			n.self = p
		} else {
			n.peers[p.ID] = p
		}
	}
	if n.self.ID == "" {
		return nil, fmt.Errorf("cluster: self %q not in the peer list", cfg.Self)
	}
	n.ring = NewRing(ids, cfg.VNodes)

	if cfg.Store != nil {
		n.ship = newShipper(n)
		n.wg.Add(1)
		go n.ship.run()
		// Every fsync'd local append fans out to the replica successors;
		// checkpoint images follow on the checkpoint writer's goroutine.
		cfg.Store.SetObserver(n.ship.enqueue)
		cfg.Store.SetCheckpointObserver(n.shipCheckpoint)
	}
	n.wg.Add(2)
	go n.healthLoop()
	go n.stealLoop()
	return n, nil
}

// Self returns this node's peer entry.
func (n *Node) Self() Peer { return n.self }

// Ring returns the node's (full-membership) hash ring.
func (n *Node) Ring() *Ring { return n.ring }

// Close stops the node's loops and uninstalls its store observers. Call
// before Service.Close / Store.Close.
func (n *Node) Close() {
	n.once.Do(func() {
		if n.cfg.Store != nil {
			n.cfg.Store.SetObserver(nil)
			n.cfg.Store.SetCheckpointObserver(nil)
			n.ship.close()
		}
		close(n.stop)
	})
	n.wg.Wait()
	n.mu.Lock()
	defer n.mu.Unlock()
	for id, l := range n.logs {
		_ = l.Close()
		delete(n.logs, id)
	}
}

// alive reports whether a peer is currently considered up.
func (n *Node) alive(id string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return !n.dead[id]
}

// aliveCount counts up peers (self excluded).
func (n *Node) aliveCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	c := 0
	for id := range n.peers {
		if !n.dead[id] {
			c++
		}
	}
	return c
}

// alivePeers snapshots the up peers (self excluded), sorted by ID for
// deterministic iteration.
func (n *Node) alivePeers() []Peer {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]Peer, 0, len(n.peers))
	for id, p := range n.peers {
		if !n.dead[id] {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// membership is the health endpoint's body: this node's static view.
func (n *Node) membership() Membership {
	m := Membership{Gen: n.gen, Sender: n.self.ID, Peers: append([]Peer(nil), n.cfg.Peers...)}
	sort.Slice(m.Peers, func(i, k int) bool { return m.Peers[i].ID < m.Peers[k].ID })
	return m
}

// healthLoop probes every peer each HealthInterval; FailAfter consecutive
// failures declare it dead, triggering adoption when this node is one of
// its replica successors. A later successful probe marks the peer up again
// (its jobs stay adopted here — rejoin reconciliation is out of scope, see
// DESIGN.md §13).
func (n *Node) healthLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
		}
		for id, p := range n.peers {
			ok := n.probe(p)
			n.mu.Lock()
			if ok {
				n.down[id] = 0
				if n.dead[id] {
					n.dead[id] = false
					n.cfg.Logf("peer %s is back", id)
				}
				n.mu.Unlock()
				continue
			}
			n.down[id]++
			died := n.down[id] >= n.cfg.FailAfter && !n.dead[id]
			if died {
				n.dead[id] = true
			}
			n.mu.Unlock()
			if died {
				n.ctr.peerDeaths.Add(1)
				n.cfg.Logf("peer %s declared dead after %d failed probes", id, n.cfg.FailAfter)
				if n.holdsReplicaOf(id) {
					go n.AdoptPeer(id)
				}
			}
		}
	}
}

// probe runs one health round trip, checking the peer's configured member
// set against ours.
func (n *Node) probe(p Peer) bool {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.URL+"/internal/cluster/health", nil)
	if err != nil {
		return false
	}
	resp, err := n.cfg.HTTPClient.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	m, err := DecodeMembership(readAllBounded(resp.Body))
	if err != nil {
		return false
	}
	theirs := make([]string, 0, len(m.Peers))
	for _, q := range m.Peers {
		theirs = append(theirs, q.ID)
	}
	sort.Strings(theirs)
	ours := n.ring.Nodes()
	if len(theirs) != len(ours) {
		n.ctr.membershipMismatch.Add(1)
		return true // alive, just misconfigured — keep routing to it
	}
	for i := range ours {
		if theirs[i] != ours[i] {
			n.ctr.membershipMismatch.Add(1)
			break
		}
	}
	return true
}

// holdsReplicaOf reports whether this node is in the dead peer's replica
// successor set — the node whose side journal makes adoption possible.
func (n *Node) holdsReplicaOf(id string) bool {
	for _, s := range n.ring.Successors(id, n.cfg.Replicas) {
		if s == n.self.ID {
			return true
		}
	}
	return false
}

// AdoptPeer replays a dead peer's shipped journal tail into the local
// service: terminal jobs restore with their results, live ones re-enqueue
// resuming from their last replicated checkpoint. Idempotent per peer for
// the process's life; a node without a Store adopts nothing. Exported for
// the ops endpoint and the conformance suite — the health loop calls it
// automatically on death when this node holds the replica.
func (n *Node) AdoptPeer(id string) service.AdoptStats {
	n.mu.Lock()
	if n.cfg.Store == nil || n.adopted[id] || n.peers[id].ID == "" {
		n.mu.Unlock()
		return service.AdoptStats{}
	}
	n.adopted[id] = true
	n.mu.Unlock()

	l, err := n.sidelogFor(id)
	if err != nil {
		n.cfg.Logf("adopt %s: no side journal: %v", id, err)
		return service.AdoptStats{}
	}
	records := l.Records()
	stats := n.cfg.Service.Adopt(records, func(jobID string) (*engine.Checkpoint, error) {
		return n.loadReplicaCheckpoint(id, jobID)
	})
	n.ctr.adoptions.Add(1)
	n.ctr.adoptedJobs.Add(int64(stats.Terminal + stats.Live))
	n.cfg.Logf("adopted peer %s: %d terminal, %d live (%d resuming), %d skipped",
		id, stats.Terminal, stats.Live, stats.Resumed, stats.Skipped)
	return stats
}

// replicaDir is where a node keeps peers' shipped state: side journals at
// replica/<peer>.jlog and checkpoint images at replica/<peer>/<job>.jckp.
// It lives OUTSIDE the store's checkpoints directory on purpose — the
// service's recovery prunes checkpoint orphans there, and replicated state
// must survive that sweep.
func (n *Node) replicaDir() string { return filepath.Join(n.cfg.Store.Dir(), "replica") }

// sidelogFor returns (opening or creating) the side journal holding a
// peer's shipped records.
func (n *Node) sidelogFor(id string) (*store.SideLog, error) {
	if id != filepath.Base(id) || id == "." || id == ".." {
		return nil, fmt.Errorf("cluster: bad source %q", id)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if l := n.logs[id]; l != nil {
		return l, nil
	}
	l, err := store.OpenSideLog(filepath.Join(n.replicaDir(), id+".jlog"))
	if err != nil {
		return nil, err
	}
	n.logs[id] = l
	return l, nil
}

// loadReplicaCheckpoint reads a peer job's last shipped checkpoint image.
func (n *Node) loadReplicaCheckpoint(source, jobID string) (*engine.Checkpoint, error) {
	if jobID != filepath.Base(jobID) || jobID == "." || jobID == ".." {
		return nil, fmt.Errorf("cluster: bad job ID %q", jobID)
	}
	data, err := os.ReadFile(filepath.Join(n.replicaDir(), source, jobID+".jckp"))
	if errors.Is(err, os.ErrNotExist) {
		return nil, store.ErrNoCheckpoint
	}
	if err != nil {
		return nil, err
	}
	return store.DecodeCheckpointImage(data)
}

// saveReplicaCheckpoint atomically writes a shipped checkpoint image
// (tmp + rename, same pattern as the store's own snapshots).
func (n *Node) saveReplicaCheckpoint(source, jobID string, image []byte) error {
	if source != filepath.Base(source) || source == "." || source == ".." {
		return fmt.Errorf("cluster: bad source %q", source)
	}
	if jobID != filepath.Base(jobID) || jobID == "." || jobID == ".." {
		return fmt.Errorf("cluster: bad job ID %q", jobID)
	}
	dir := filepath.Join(n.replicaDir(), source)
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return err
	}
	tmp := filepath.Join(dir, jobID+".jckp.tmp")
	if err := os.WriteFile(tmp, image, 0o666); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, jobID+".jckp"))
}

// replicaTargets resolves this node's current shipment destinations.
func (n *Node) replicaTargets() []Peer {
	var out []Peer
	for _, id := range n.ring.Successors(n.self.ID, n.cfg.Replicas) {
		if p, ok := n.peers[id]; ok {
			out = append(out, p)
		}
	}
	return out
}

// shipCheckpoint forwards one checkpoint image to the replica set. It runs
// on the service's checkpoint-writer goroutine — already off the solve's
// critical path — so a synchronous POST is fine; failures count and drop
// (a missed checkpoint only costs resume granularity).
func (n *Node) shipCheckpoint(jobID string, ck *engine.Checkpoint) {
	image := store.EncodeCheckpointImage(ck)
	for _, p := range n.replicaTargets() {
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		u := p.URL + "/internal/cluster/ckpt?source=" + url.QueryEscape(n.self.ID) + "&id=" + url.QueryEscape(jobID)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(image))
		if err == nil {
			var resp *http.Response
			if resp, err = n.cfg.HTTPClient.Do(req); err == nil {
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("status %d", resp.StatusCode)
				}
			}
		}
		cancel()
		if err != nil {
			n.ctr.ckptShipErrors.Add(1)
		} else {
			n.ctr.ckptsShipped.Add(1)
		}
	}
}

// shipper batches fsync'd journal appends and forwards them to the replica
// set in order. Flush blocks until everything enqueued before the call has
// been attempted — the accept-before-ack barrier the routing handler uses
// so a 202 response implies the submission's record already reached the
// replicas. Delivery failures count (shipErrors) but still settle: a dead
// replica never blocks local submits.
type shipper struct {
	n     *Node
	mu    sync.Mutex
	cond  *sync.Cond
	buf   []store.Record
	base  uint64 // stream index of buf[0]
	enq   uint64 // total records ever enqueued
	acked uint64 // total records settled (delivered or failed)
	done  bool
}

func newShipper(n *Node) *shipper {
	sh := &shipper{n: n}
	sh.cond = sync.NewCond(&sh.mu)
	return sh
}

// enqueue is the store's append observer: it runs under the store's append
// lock and must only buffer.
func (sh *shipper) enqueue(rec store.Record) {
	sh.mu.Lock()
	sh.buf = append(sh.buf, rec)
	sh.enq++
	sh.mu.Unlock()
	sh.cond.Broadcast()
}

// Flush blocks until every record enqueued before the call has been
// shipped (or its delivery failed and was counted). A closed shipper
// returns immediately.
func (sh *shipper) Flush() {
	sh.mu.Lock()
	target := sh.enq
	for sh.acked < target && !sh.done {
		sh.cond.Wait()
	}
	sh.mu.Unlock()
}

func (sh *shipper) close() {
	sh.mu.Lock()
	sh.done = true
	sh.mu.Unlock()
	sh.cond.Broadcast()
}

// run drains the buffer in batches, POSTing each to every replica target.
func (sh *shipper) run() {
	defer sh.n.wg.Done()
	for {
		sh.mu.Lock()
		for len(sh.buf) == 0 && !sh.done {
			sh.cond.Wait()
		}
		if sh.done {
			sh.mu.Unlock()
			return
		}
		batch := sh.buf
		base := sh.base
		sh.buf = nil
		sh.base += uint64(len(batch))
		sh.mu.Unlock()

		body := EncodeShipment(Shipment{Source: sh.n.self.ID, Base: base, Records: batch})
		failed := false
		for _, p := range sh.n.replicaTargets() {
			ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.URL+"/internal/cluster/ship", bytes.NewReader(body))
			if err == nil {
				var resp *http.Response
				if resp, err = sh.n.cfg.HTTPClient.Do(req); err == nil {
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						err = fmt.Errorf("status %d", resp.StatusCode)
					}
				}
			}
			cancel()
			if err != nil {
				failed = true
				sh.n.ctr.shipErrors.Add(1)
			}
		}
		if !failed {
			sh.n.ctr.recordsShipped.Add(int64(len(batch)))
		}

		sh.mu.Lock()
		sh.acked += uint64(len(batch))
		sh.mu.Unlock()
		sh.cond.Broadcast()
	}
}

// readAllBounded slurps a small control-plane response (1 MiB cap).
func readAllBounded(r io.Reader) []byte {
	data, _ := io.ReadAll(io.LimitReader(r, 1<<20))
	return data
}
