package machine

import (
	"fmt"
	"math"

	"repro/internal/bitutil"
)

// NodeStats counts a single node's traffic.
type NodeStats struct {
	Messages    int
	Elements    int
	ExchangeOps int
	PerDim      []int
}

// NodeCtx is a node's handle to the machine: its identity, virtual clock and
// communication primitives. A NodeCtx must only be used from the goroutine
// running the node's program.
type NodeCtx struct {
	machine *Machine
	id      int
	vtime   float64
	stats   NodeStats
	links   LinkTimer
}

// ID returns the node's label in [0, 2^d).
func (c *NodeCtx) ID() int { return c.id }

// Dim returns the hypercube dimension.
func (c *NodeCtx) Dim() int { return c.machine.cfg.Dim }

// Nodes returns the node count.
func (c *NodeCtx) Nodes() int { return c.machine.Nodes() }

// VTime returns the node's current virtual time.
func (c *NodeCtx) VTime() float64 { return c.vtime }

// Stats returns a copy of the node's traffic counters.
func (c *NodeCtx) Stats() NodeStats {
	s := c.stats
	s.PerDim = append([]int(nil), c.stats.PerDim...)
	return s
}

// Compute advances the virtual clock by units·Tc, modeling local
// computation (units is typically a flop count).
func (c *NodeCtx) Compute(units float64) {
	c.vtime += units * c.machine.cfg.Tc
}

// AdvanceTime adds dt model time units directly; used by executors that
// account for computation themselves.
func (c *NodeCtx) AdvanceTime(dt float64) {
	if dt > 0 {
		c.vtime += dt
	}
}

// Exchange performs a symmetric exchange with the neighbor across the given
// link: the payload is sent and the neighbor's payload returned. Both sides
// must call Exchange on the same link in the same order, or the operation
// times out with an error (the machine's deadlock detection).
func (c *NodeCtx) Exchange(link int, payload []float64) ([]float64, error) {
	got, err := c.ExchangeBatch([]int{link}, [][]float64{payload})
	if err != nil {
		return nil, err
	}
	return got[0], nil
}

// ExchangeBatch exchanges one message per listed link, all as a single
// multi-port communication operation: under AllPort the start-ups serialize
// but transmissions overlap (cost u·Ts + max·Tw); under OnePort everything
// serializes (Σ Ts + size·Tw). Links must be distinct; callers that would
// send several packets over one link must combine them into a single payload
// first (message combining, as the paper specifies).
//
// Payload slices are handed off to the receiver: the caller must not read or
// modify them after the call. The returned payloads are ordered like links
// and are owned by the caller.
func (c *NodeCtx) ExchangeBatch(links []int, payloads [][]float64) ([][]float64, error) {
	if len(links) != len(payloads) {
		return nil, fmt.Errorf("machine: %d links but %d payloads", len(links), len(payloads))
	}
	if len(links) == 0 {
		return nil, nil
	}
	m := c.machine
	startTime := c.vtime
	var seen uint32 // bit l set once link l is listed (Dim <= 16)
	for _, l := range links {
		if l < 0 || l >= m.cfg.Dim {
			return nil, fmt.Errorf("machine: node %d: invalid link %d", c.id, l)
		}
		if seen&(1<<l) != 0 {
			return nil, fmt.Errorf("machine: node %d: duplicate link %d in batch (combine messages first)", c.id, l)
		}
		seen |= 1 << l
	}

	// Model the send side: when does each outgoing transmission complete?
	doneTimes := c.sendDoneTimes(payloads)
	ownDone := c.vtime
	for _, t := range doneTimes {
		if t > ownDone {
			ownDone = t
		}
	}

	// Send to each neighbor's inbound channel for the link's dimension.
	for i, l := range links {
		nb := bitutil.Flip(c.id, l)
		if !Send(&c.links, m.in[nb][l], message{payload: payloads[i], doneTime: doneTimes[i]}) {
			return nil, fmt.Errorf("machine: node %d: send on link %d timed out (neighbor %d not receiving)", c.id, l, nb)
		}
		c.stats.Messages++
		c.stats.Elements += len(payloads[i])
		if c.stats.PerDim == nil {
			c.stats.PerDim = make([]int, m.cfg.Dim)
		}
		c.stats.PerDim[l]++
	}
	c.stats.ExchangeOps++

	// Receive the symmetric messages; completion is the latest of our own
	// sends and every arrival.
	out := make([][]float64, len(links))
	completion := ownDone
	for i, l := range links {
		msg, ok := Recv(&c.links, m.in[c.id][l])
		if !ok {
			return nil, fmt.Errorf("machine: node %d: receive on link %d timed out (schedule mismatch?)", c.id, l)
		}
		out[i] = msg.payload
		if msg.doneTime > completion {
			completion = msg.doneTime
		}
	}
	c.vtime = completion
	if m.cfg.OnEvent != nil {
		elems := 0
		for _, p := range payloads {
			elems += len(p)
		}
		m.cfg.OnEvent(Event{
			Node:     c.id,
			Start:    startTime,
			End:      completion,
			Links:    append([]int(nil), links...),
			Elements: elems,
		})
	}
	return out, nil
}

// sendDoneTimes returns, for each outgoing message, the virtual time at
// which its transmission completes under the configured port model (the
// shared BatchDoneTimes formulas applied to the payload sizes).
func (c *NodeCtx) sendDoneTimes(payloads [][]float64) []float64 {
	cfg := c.machine.cfg
	sizes := make([]int, len(payloads))
	for i, p := range payloads {
		sizes[i] = len(p)
	}
	return BatchDoneTimes(cfg.Ports, cfg.Ts, cfg.Tw, c.vtime, sizes)
}

// AllReduce combines a per-node vector across all nodes with the given
// elementwise operation, using the classic d-step butterfly (recursive
// doubling): at step i every node exchanges its partial vector with its
// dimension-i neighbor. Every node returns the same combined vector.
func (c *NodeCtx) AllReduce(vals []float64, op func(a, b float64) float64) ([]float64, error) {
	acc := append([]float64(nil), vals...)
	for dim := 0; dim < c.Dim(); dim++ {
		// Exchange transfers payload ownership, so send a snapshot: acc is
		// mutated below while the neighbor still holds the message.
		snapshot := append([]float64(nil), acc...)
		got, err := c.Exchange(dim, snapshot)
		if err != nil {
			return nil, fmt.Errorf("allreduce step %d: %w", dim, err)
		}
		if len(got) != len(acc) {
			return nil, fmt.Errorf("allreduce step %d: length mismatch %d vs %d", dim, len(got), len(acc))
		}
		for k := range acc {
			acc[k] = op(acc[k], got[k])
		}
	}
	return acc, nil
}

// AllReduceMax is AllReduce with elementwise max.
func (c *NodeCtx) AllReduceMax(vals []float64) ([]float64, error) {
	return c.AllReduce(vals, math.Max)
}

// AllReduceSum is AllReduce with elementwise addition.
func (c *NodeCtx) AllReduceSum(vals []float64) ([]float64, error) {
	return c.AllReduce(vals, func(a, b float64) float64 { return a + b })
}

// Barrier synchronizes all nodes (an AllReduce of nothing but time).
func (c *NodeCtx) Barrier() error {
	_, err := c.AllReduceMax([]float64{0})
	return err
}
