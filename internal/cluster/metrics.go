package cluster

import (
	"sort"
	"sync/atomic"

	"repro/internal/metrics"
)

// counters is the node's per-process activity account. Everything is an
// atomic: steal workers, the shipper, the health prober and request
// handlers all bump concurrently.
type counters struct {
	routedLocal   atomic.Int64
	routedProxied atomic.Int64
	proxyErrors   atomic.Int64

	stealAttempts   atomic.Int64
	jobsStolen      atomic.Int64
	stolenCompleted atomic.Int64
	stolenReturned  atomic.Int64
	jobsLent        atomic.Int64

	recordsShipped  atomic.Int64
	shipErrors      atomic.Int64
	ckptsShipped    atomic.Int64
	ckptShipErrors  atomic.Int64
	recordsReceived atomic.Int64

	peerDeaths  atomic.Int64
	adoptions   atomic.Int64
	adoptedJobs atomic.Int64

	membershipMismatch atomic.Int64
}

// Metrics snapshots the node's counters in the wire shape (the Cluster
// field of /api/v2/metrics, exported to /metrics with a node label).
func (n *Node) Metrics() *metrics.ClusterMetrics {
	peers := make([]string, 0, len(n.peers))
	for id := range n.peers {
		peers = append(peers, id)
	}
	sort.Strings(peers)
	m := &metrics.ClusterMetrics{
		NodeID: n.self.ID,
		Peers:  peers,
		Alive:  n.aliveCount(),

		RoutedLocal:   n.ctr.routedLocal.Load(),
		RoutedProxied: n.ctr.routedProxied.Load(),
		ProxyErrors:   n.ctr.proxyErrors.Load(),

		StealAttempts:   n.ctr.stealAttempts.Load(),
		JobsStolen:      n.ctr.jobsStolen.Load(),
		StolenCompleted: n.ctr.stolenCompleted.Load(),
		StolenReturned:  n.ctr.stolenReturned.Load(),
		JobsLent:        n.ctr.jobsLent.Load(),

		RecordsShipped:  n.ctr.recordsShipped.Load(),
		ShipErrors:      n.ctr.shipErrors.Load(),
		CkptsShipped:    n.ctr.ckptsShipped.Load(),
		CkptShipErrors:  n.ctr.ckptShipErrors.Load(),
		RecordsReceived: n.ctr.recordsReceived.Load(),

		PeerDeaths:  n.ctr.peerDeaths.Load(),
		Adoptions:   n.ctr.adoptions.Load(),
		AdoptedJobs: n.ctr.adoptedJobs.Load(),

		MembershipMismatch: n.ctr.membershipMismatch.Load(),
	}
	return m
}
