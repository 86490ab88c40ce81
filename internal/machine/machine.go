// Package machine emulates a multi-port hypercube multicomputer with
// goroutines as nodes and channels as links, the execution substrate for the
// distributed one-sided Jacobi solvers (there is no physical multi-port
// hypercube, and Go has no MPI; see DESIGN.md).
//
// Each node runs a user program on its own goroutine and communicates with
// its d neighbors through per-dimension FIFO channels, carrying real data
// ([]float64 payloads). Alongside the actual message passing, the machine
// maintains a deterministic virtual clock per node implementing the timing
// model of the paper (and of Díaz de Cerio et al. [9]):
//
//   - sending a message costs a start-up time Ts plus size·Tw;
//   - in the all-port configuration a node may transmit on all d links
//     simultaneously: start-ups serialize on the node processor, but
//     transmissions overlap, so a batch over u distinct links with largest
//     message size L costs u·Ts + L·Tw;
//   - in the one-port configuration the batch fully serializes:
//     Σ (Ts + size·Tw).
//
// Virtual time is advanced only by explicit Compute calls and by message
// operations, so simulated communication cost is independent of host
// scheduling: runs are bit-deterministic.
package machine

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/hypercube"
)

// PortModel is the number of links a node may drive simultaneously:
// AllPort (0) means unlimited (all d links at once), OnePort (1) fully
// serializes, and any k >= 2 models a k-port architecture where at most k
// transmissions overlap. Start-ups always serialize on the node processor
// ([14] and the model of [9]).
type PortModel int

const (
	// AllPort lets every node send and receive on all d links at once.
	AllPort PortModel = 0
	// OnePort serializes all communication of a node.
	OnePort PortModel = 1
)

// KPort returns the PortModel with k simultaneous ports.
func KPort(k int) PortModel {
	if k < 0 {
		k = 0
	}
	return PortModel(k)
}

// String implements fmt.Stringer.
func (p PortModel) String() string {
	switch p {
	case AllPort:
		return "all-port"
	case OnePort:
		return "one-port"
	default:
		return fmt.Sprintf("%d-port", int(p))
	}
}

// Config parameterizes a machine.
type Config struct {
	// Dim is the hypercube dimension d (2^d nodes).
	Dim int
	// Ports selects the port model. Default AllPort.
	Ports PortModel
	// Ts is the communication start-up cost in model time units.
	Ts float64
	// Tw is the transmission cost per payload element.
	Tw float64
	// Tc is the compute cost per unit passed to NodeCtx.Compute. Zero
	// models communication cost only, as the paper's Figure 2 does.
	Tc float64
	// ExchangeTimeout bounds how long a node waits on a neighbor before
	// reporting a deadlock (mismatched schedules). Default 10s.
	ExchangeTimeout time.Duration
	// OnEvent, when non-nil, receives one Event per communication operation
	// as it completes. It is called concurrently from node goroutines and
	// must be safe for concurrent use (see the trace package's Collector).
	OnEvent func(Event)
}

// Event records one completed communication operation for tracing.
type Event struct {
	// Node is the node that performed the operation.
	Node int
	// Start and End are the node's virtual times before and after.
	Start, End float64
	// Links are the dimensions driven, in batch order.
	Links []int
	// Elements is the total payload size sent by this node.
	Elements int
}

func (c Config) withDefaults() Config {
	if c.ExchangeTimeout <= 0 {
		c.ExchangeTimeout = 10 * time.Second
	}
	return c
}

// message carries a payload and the sender-side virtual time at which its
// transmission completes under the timing model.
type message struct {
	payload  []float64
	doneTime float64
}

// Machine is an emulated multi-port hypercube multicomputer.
type Machine struct {
	cfg  Config
	cube hypercube.Cube
	// in[node][dim] is the inbound channel of `node` for messages arriving
	// through `dim`. A node's own program can run at most one stage ahead
	// of a neighbor, so a small buffer suffices; 8 leaves slack.
	in [][]chan message
}

// New builds a machine. Dimensions outside [0, 16] are rejected: 2^16 nodes
// at one goroutine each is already beyond any experiment here.
func New(cfg Config) (*Machine, error) {
	if cfg.Dim < 0 || cfg.Dim > 16 {
		return nil, fmt.Errorf("machine: dimension %d out of range [0,16]", cfg.Dim)
	}
	cfg = cfg.withDefaults()
	m := &Machine{cfg: cfg, cube: hypercube.New(cfg.Dim)}
	n := m.cube.Nodes()
	m.in = make([][]chan message, n)
	for p := 0; p < n; p++ {
		m.in[p] = make([]chan message, cfg.Dim)
		for dim := 0; dim < cfg.Dim; dim++ {
			m.in[p][dim] = make(chan message, 8)
		}
	}
	return m, nil
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Nodes returns the node count 2^d.
func (m *Machine) Nodes() int { return m.cube.Nodes() }

// Program is the code run by every node. It must use only its NodeCtx for
// communication. Returning an error aborts the run.
type Program func(ctx *NodeCtx) error

// RunStats aggregates the instrumentation of a completed run.
type RunStats struct {
	// Makespan is the largest node virtual time: the modeled parallel
	// execution time.
	Makespan float64
	// NodeTimes holds every node's final virtual time.
	NodeTimes []float64
	// Messages is the total number of point-to-point messages sent.
	Messages int
	// Elements is the total number of payload elements sent. For the
	// emulated machine this is the serialized wire size (encoding headers
	// included).
	Elements int
	// RawElements is the total number of modeled raw payload elements sent
	// (no encoding headers) — the quantity the analytic cost model charges.
	// The machine itself only sees serialized payloads, so this field is
	// filled in by the layer that knows the raw sizes (the solver engine);
	// it stays zero for programs run directly on the machine.
	RawElements int
	// ExchangeOps is the total number of exchange operations (batches count
	// once per node).
	ExchangeOps int
	// PerDimMessages counts messages by hypercube dimension.
	PerDimMessages []int
	// WallTime is the host time the run took.
	WallTime time.Duration
}

// Run executes program on every node concurrently and returns aggregated
// statistics. If any node fails (error or panic) the first failure is
// returned after all goroutines stop; deadlocks surface as exchange
// timeouts.
func (m *Machine) Run(program Program) (*RunStats, error) {
	n := m.cube.Nodes()
	ctxs := make([]*NodeCtx, n)
	for p := 0; p < n; p++ {
		ctxs[p] = &NodeCtx{machine: m, id: p, links: NewLinkTimer(m.cfg.ExchangeTimeout)}
	}
	errs := make([]error, n)
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(n)
	for p := 0; p < n; p++ {
		go func(p int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[p] = fmt.Errorf("machine: node %d panicked: %v", p, r)
				}
			}()
			errs[p] = program(ctxs[p])
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("machine: node %d: %w", p, err)
		}
	}
	stats := &RunStats{
		NodeTimes:      make([]float64, n),
		PerDimMessages: make([]int, m.cfg.Dim),
		WallTime:       time.Since(start),
	}
	for p, ctx := range ctxs {
		stats.NodeTimes[p] = ctx.vtime
		if ctx.vtime > stats.Makespan {
			stats.Makespan = ctx.vtime
		}
		stats.Messages += ctx.stats.Messages
		stats.Elements += ctx.stats.Elements
		stats.ExchangeOps += ctx.stats.ExchangeOps
		for dim, c := range ctx.stats.PerDim {
			stats.PerDimMessages[dim] += c
		}
	}
	return stats, nil
}
