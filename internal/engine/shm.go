package engine

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/bitutil"
	"repro/internal/machine"
)

// Multicore is the shared-memory ExecBackend: a worker pool of one goroutine
// per hypercube node, exchanging blocks by pointer handoff through buffered
// channels. No data is serialized or copied and no virtual clock runs, so
// large eigensolves execute at hardware speed, parallel across cores. Stats
// report modeled payload sizes (raw elements) but Makespan stays zero.
//
// As the hardware-speed path, Multicore runs the fused blocked kernels by
// default (internal/kernel): results stay within the kernel package's
// documented ulp bound of the reference path the clocked backends run, and
// the differential suite enforces the bound.
type Multicore struct {
	// ExchangeTimeout bounds rendezvous waits (deadlock detection).
	// Default 30s.
	ExchangeTimeout time.Duration
	// ReferenceKernels opts out of the fused kernels, putting the run in
	// the clocked backends' bit-identical equivalence class. Used by the
	// conformance suite to prove the execution substrate and the kernel
	// choice are independent axes; production solves leave it false.
	ReferenceKernels bool
}

// Name implements ExecBackend.
func (b *Multicore) Name() string { return "multicore" }

// FusedKernels implements FusedKernelBackend: fused unless the run opted
// into the reference path.
func (b *Multicore) FusedKernels() bool { return !b.ReferenceKernels }

// Run implements ExecBackend.
func (b *Multicore) Run(d, blockHeight, factorHeight int, program func(NodeCtx) error) (*Stats, error) {
	return shmRun(d, program, nil, b.ExchangeTimeout)
}

// Analytic is the cost-model ExecBackend: execution proceeds exactly like
// Multicore (pointer handoff, shared memory), but every node keeps a virtual
// clock advanced by the paper's timing model — machine.BatchDoneTimes over
// the raw payload element counts (no encoding headers) plus Tc per flop. The
// resulting Makespan is the analytic prediction of the run's communication
// and computation time, produced by the same code path that executes the
// measured runs: for a fixed-sweep unpipelined solve it reproduces
// costmodel.BaselineSweepCost exactly.
type Analytic struct {
	// Ports, Ts, Tw, Tc parameterize the timing model, exactly as for the
	// emulated machine.
	Ports machine.PortModel
	Ts    float64
	Tw    float64
	Tc    float64
	// ExchangeTimeout bounds rendezvous waits. Default 30s.
	ExchangeTimeout time.Duration
}

// Name implements ExecBackend.
func (b *Analytic) Name() string { return "analytic" }

// Run implements ExecBackend.
func (b *Analytic) Run(d, blockHeight, factorHeight int, program func(NodeCtx) error) (*Stats, error) {
	tm := &timingParams{Ports: b.Ports, Ts: b.Ts, Tw: b.Tw, Tc: b.Tc}
	return shmRun(d, program, tm, b.ExchangeTimeout)
}

// timingParams is the analytic clock's configuration.
type timingParams struct {
	Ports machine.PortModel
	Ts    float64
	Tw    float64
	Tc    float64
}

// shmMsg is what crosses a link in the shared-memory backends: block
// pointers (ownership transfers with the send), or an allreduce vector. done
// is the sender-side completion time under the analytic clock (zero without
// one); elems is the modeled raw payload size.
type shmMsg struct {
	blocks []*Block
	vals   []float64
	done   float64
	elems  int
}

const defaultShmTimeout = 30 * time.Second

// shmRun executes program on every node of a d-cube over the shared-memory
// substrate, with an optional analytic clock.
func shmRun(d int, program func(NodeCtx) error, tm *timingParams, timeout time.Duration) (*Stats, error) {
	if d < 0 || d > 16 {
		return nil, fmt.Errorf("engine: dimension %d out of range [0,16]", d)
	}
	if timeout <= 0 {
		timeout = defaultShmTimeout
	}
	n := 1 << uint(d)
	// in[node][dim] carries messages arriving at `node` through `dim`. A
	// node can run at most one stage ahead of a neighbor; 8 leaves slack
	// (same sizing as the emulated machine).
	in := make([][]chan shmMsg, n)
	for p := 0; p < n; p++ {
		in[p] = make([]chan shmMsg, d)
		for dim := 0; dim < d; dim++ {
			in[p][dim] = make(chan shmMsg, 8)
		}
	}
	ctxs := make([]*shmCtx, n)
	for p := 0; p < n; p++ {
		ctxs[p] = &shmCtx{id: p, d: d, in: in, tm: tm, links: machine.NewLinkTimer(timeout)}
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
					errs[p] = fmt.Errorf("engine: node %d panicked: %v", p, r)
				}
			}()
			errs[p] = program(ctxs[p])
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("engine: node %d: %w", p, err)
		}
	}
	stats := &Stats{
		NodeTimes:      make([]float64, n),
		PerDimMessages: make([]int, d),
		WallTime:       time.Since(start),
	}
	for p, ctx := range ctxs {
		stats.NodeTimes[p] = ctx.vtime
		if ctx.vtime > stats.Makespan {
			stats.Makespan = ctx.vtime
		}
		stats.Messages += ctx.messages
		stats.Elements += ctx.elements
		stats.ExchangeOps += ctx.exchangeOps
		for dim, c := range ctx.perDim {
			stats.PerDimMessages[dim] += c
		}
	}
	// Shared-memory payloads are never serialized, so the counted elements
	// are already the raw modeled sizes.
	stats.RawElements = stats.Elements
	return stats, nil
}

// shmCtx is the shared-memory NodeCtx.
type shmCtx struct {
	id    int
	d     int
	in    [][]chan shmMsg
	tm    *timingParams
	links machine.LinkTimer

	vtime       float64
	messages    int
	elements    int
	exchangeOps int
	perDim      []int
}

func (c *shmCtx) ID() int { return c.id }

func (c *shmCtx) Compute(flops float64) {
	if c.tm != nil {
		c.vtime += flops * c.tm.Tc
	}
}

// exchange is the rendezvous core: one message per listed (distinct) link,
// sent to each link-neighbor and matched by the symmetric receives. Under
// the analytic clock the batch is charged via the shared timing model and
// completion synchronizes with every arrival, exactly as on the emulated
// machine.
func (c *shmCtx) exchange(links []int, msgs []shmMsg) ([]shmMsg, error) {
	if len(links) != len(msgs) {
		return nil, fmt.Errorf("engine: %d links but %d messages", len(links), len(msgs))
	}
	if len(links) == 0 {
		return nil, nil
	}
	var seen uint32 // bit l set once link l is listed (d <= 16)
	for _, l := range links {
		if l < 0 || l >= c.d {
			return nil, fmt.Errorf("engine: node %d: invalid link %d", c.id, l)
		}
		if seen&(1<<l) != 0 {
			return nil, fmt.Errorf("engine: node %d: duplicate link %d in batch (combine messages first)", c.id, l)
		}
		seen |= 1 << l
	}
	ownDone := c.vtime
	if c.tm != nil {
		sizes := make([]int, len(msgs))
		for i := range msgs {
			sizes[i] = msgs[i].elems
		}
		doneTimes := machine.BatchDoneTimes(c.tm.Ports, c.tm.Ts, c.tm.Tw, c.vtime, sizes)
		for i := range msgs {
			msgs[i].done = doneTimes[i]
			if doneTimes[i] > ownDone {
				ownDone = doneTimes[i]
			}
		}
	}
	if c.perDim == nil {
		c.perDim = make([]int, c.d)
	}
	for i, l := range links {
		nb := bitutil.Flip(c.id, l)
		if !machine.Send(&c.links, c.in[nb][l], msgs[i]) {
			return nil, fmt.Errorf("engine: node %d: send on link %d timed out (neighbor %d not receiving)", c.id, l, nb)
		}
		c.messages++
		c.elements += msgs[i].elems
		c.perDim[l]++
	}
	c.exchangeOps++
	out := make([]shmMsg, len(links))
	completion := ownDone
	for i, l := range links {
		msg, ok := machine.Recv(&c.links, c.in[c.id][l])
		if !ok {
			return nil, fmt.Errorf("engine: node %d: receive on link %d timed out (schedule mismatch?)", c.id, l)
		}
		out[i] = msg
		if msg.done > completion {
			completion = msg.done
		}
	}
	if c.tm != nil {
		c.vtime = completion
	}
	return out, nil
}

func (c *shmCtx) ExchangeBlock(link int, b *Block) (*Block, error) {
	out, err := c.exchange([]int{link}, []shmMsg{{blocks: []*Block{b}, elems: b.rawElems()}})
	if err != nil {
		return nil, err
	}
	if len(out[0].blocks) != 1 {
		return nil, fmt.Errorf("engine: node %d: expected one block on link %d, got %d", c.id, link, len(out[0].blocks))
	}
	return out[0].blocks[0], nil
}

func (c *shmCtx) ExchangeSlices(links []int, groups [][]*Block) ([][]*Block, error) {
	msgs := make([]shmMsg, len(groups))
	for i, g := range groups {
		elems := 0
		for _, b := range g {
			elems += b.rawElems()
		}
		msgs[i] = shmMsg{blocks: g, elems: elems}
	}
	out, err := c.exchange(links, msgs)
	if err != nil {
		return nil, err
	}
	res := make([][]*Block, len(out))
	for i := range out {
		res[i] = out[i].blocks
	}
	return res, nil
}

// allReduce mirrors the emulated machine's recursive-doubling butterfly so
// the analytic clock charges the same communication pattern.
func (c *shmCtx) allReduce(vals []float64, op func(a, b float64) float64) ([]float64, error) {
	acc := append([]float64(nil), vals...)
	for dim := 0; dim < c.d; dim++ {
		// Ownership of the sent vector transfers; send a snapshot since acc
		// is mutated below while the neighbor still holds the message.
		snapshot := append([]float64(nil), acc...)
		out, err := c.exchange([]int{dim}, []shmMsg{{vals: snapshot, elems: len(snapshot)}})
		if err != nil {
			return nil, fmt.Errorf("allreduce step %d: %w", dim, err)
		}
		got := out[0].vals
		if len(got) != len(acc) {
			return nil, fmt.Errorf("allreduce step %d: length mismatch %d vs %d", dim, len(got), len(acc))
		}
		for k := range acc {
			acc[k] = op(acc[k], got[k])
		}
	}
	return acc, nil
}

func (c *shmCtx) AllReduceMax(vals []float64) ([]float64, error) {
	return c.allReduce(vals, math.Max)
}

func (c *shmCtx) AllReduceSum(vals []float64) ([]float64, error) {
	return c.allReduce(vals, func(a, b float64) float64 { return a + b })
}
