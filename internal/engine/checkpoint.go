package engine

import (
	"fmt"
	"sync"
	"time"
)

// This file is the engine's sweep-boundary checkpoint/restore pair: the
// mechanism the durable job store (internal/store, wired through the
// batch-solve service) uses to make an in-flight solve survive a process
// crash. A checkpoint is a complete snapshot of the solve's numerical
// state at one sweep boundary — every node's two column blocks in their
// current placement, plus the cumulative convergence counters — and
// restoring one reconstructs a Problem whose remaining sweeps execute the
// exact rotation sequence the uninterrupted run would have executed:
//
//   - on the reference kernel path (emulated, analytic, central replay,
//     Multicore{ReferenceKernels: true}) the resumed solve is bit-identical
//     to the uninterrupted one, because the sweep loop's entire state at a
//     boundary lives in the block columns and the counters;
//   - on the fused path (Multicore) the same argument holds per run, and
//     the resumed result stays within the kernel package's documented ulp
//     bound of the reference path exactly as an uninterrupted fused run
//     does (the per-worker Scratch recomputes its norm carries at every
//     pairing, so no numeric state survives a boundary outside the blocks).
//
// Capture rides the sweep-end convergence allreduce: each node deep-copies
// its two slots into a shared table before entering the allreduce (whose
// completion orders every copy before node 0's read), node 0 assembles the
// Checkpoint and invokes the hook, and one extra barrier allreduce keeps
// any node from starting the next boundary's copies until the hook
// returned. Checkpointing therefore needs the convergence reduction:
// fixed-sweep runs (which skip it) and the pipelined node program do not
// support it.

// Checkpoint is one sweep-boundary snapshot of a distributed solve. It is
// self-contained: together with the Problem's static configuration (Dim,
// Family, Opts — which the service persists as the job spec) it fully
// determines the remaining sweeps.
type Checkpoint struct {
	// Dim, Rows, FactorRows mirror the Problem's shape (FactorRows is the
	// resolved factor height, never 0).
	Dim        int
	Rows       int
	FactorRows int
	// Sweep is the number of completed sweeps at capture; the resumed run
	// executes sweep indices Sweep, Sweep+1, ...
	Sweep int
	// Rotations is the cumulative globally-reduced rotation count over all
	// completed sweeps, so a resumed run's Outcome.Rotations matches the
	// uninterrupted run's.
	Rotations int
	// TraceGram is the Problem's TraceGram, carried so a restore needs no
	// recomputation from the original input (the OffFrob criterion compares
	// against it bit-exactly).
	TraceGram float64
	// Slots are the 2·2^Dim blocks in their boundary placement: node p's
	// stationary slot at index 2p, its moving slot at 2p+1. The blocks are
	// deep copies owned by the checkpoint.
	Slots []*Block
}

// Clone returns an independent deep copy of the block.
func (b *Block) Clone() *Block {
	out := &Block{
		ID:   b.ID,
		Cols: append([]int(nil), b.Cols...),
		A:    make([][]float64, len(b.A)),
		U:    make([][]float64, len(b.U)),
	}
	for k := range b.A {
		out.A[k] = append([]float64(nil), b.A[k]...)
	}
	for k := range b.U {
		out.U[k] = append([]float64(nil), b.U[k]...)
	}
	return out
}

// Clone returns an independent deep copy of the checkpoint.
func (c *Checkpoint) Clone() *Checkpoint {
	out := *c
	out.Slots = make([]*Block, len(c.Slots))
	for i, b := range c.Slots {
		out.Slots[i] = b.Clone()
	}
	return &out
}

// Validate checks the checkpoint's internal consistency (shape, slot
// count, column heights, and column IDs that are a permutation of
// [0, FactorRows) across all slots) without reference to a Problem.
func (c *Checkpoint) Validate() error {
	if c.Dim < 0 || c.Dim > 16 {
		return fmt.Errorf("engine: checkpoint dimension %d out of range [0,16]", c.Dim)
	}
	if c.Rows <= 0 || c.FactorRows <= 0 {
		return fmt.Errorf("engine: checkpoint heights %dx%d must be positive", c.Rows, c.FactorRows)
	}
	if c.Sweep < 1 {
		return fmt.Errorf("engine: checkpoint at sweep %d (want >= 1 completed sweep)", c.Sweep)
	}
	want := 2 << uint(c.Dim)
	if len(c.Slots) != want {
		return fmt.Errorf("engine: checkpoint has %d slots for a %d-cube, want %d", len(c.Slots), c.Dim, want)
	}
	ncols := 0
	for i, b := range c.Slots {
		if b == nil {
			return fmt.Errorf("engine: checkpoint slot %d is nil", i)
		}
		if len(b.A) != len(b.Cols) || len(b.U) != len(b.Cols) {
			return fmt.Errorf("engine: checkpoint slot %d has %d columns but %d/%d A/U vectors", i, len(b.Cols), len(b.A), len(b.U))
		}
		ncols += len(b.Cols)
		for k := range b.Cols {
			if len(b.A[k]) != c.Rows {
				return fmt.Errorf("engine: checkpoint slot %d column %d has height %d, want %d", i, k, len(b.A[k]), c.Rows)
			}
			if len(b.U[k]) != c.FactorRows {
				return fmt.Errorf("engine: checkpoint slot %d factor column %d has height %d, want %d", i, k, len(b.U[k]), c.FactorRows)
			}
		}
	}
	// Gathering writes column c of the factors at index c: the IDs must
	// name every column exactly once. The count check first bounds seen
	// by the columns actually present.
	if ncols != c.FactorRows {
		return fmt.Errorf("engine: checkpoint holds %d columns, want %d", ncols, c.FactorRows)
	}
	seen := make([]bool, ncols)
	for i, b := range c.Slots {
		for _, col := range b.Cols {
			if col < 0 || col >= ncols {
				return fmt.Errorf("engine: checkpoint slot %d column ID %d out of range [0,%d)", i, col, ncols)
			}
			if seen[col] {
				return fmt.Errorf("engine: checkpoint slot %d repeats column ID %d", i, col)
			}
			seen[col] = true
		}
	}
	return nil
}

// Restore points the problem at the checkpoint's sweep boundary: the
// blocks become deep copies of the checkpointed slots (replacing whatever
// Blocks held), the sweep loop starts at ck.Sweep, and the outcome's
// rotation count continues from ck.Rotations. The problem's shape must
// match the checkpoint's. Restore composes with every non-pipelined
// backend path; restoring a pipelined problem is rejected at Run.
func (p *Problem) Restore(ck *Checkpoint) error {
	if err := ck.Validate(); err != nil {
		return err
	}
	if ck.Dim != p.Dim {
		return fmt.Errorf("engine: checkpoint for a %d-cube cannot restore a %d-cube problem", ck.Dim, p.Dim)
	}
	if p.Rows != 0 && ck.Rows != p.Rows {
		return fmt.Errorf("engine: checkpoint rows %d != problem rows %d", ck.Rows, p.Rows)
	}
	if fh := p.factorHeight(); fh != 0 && ck.FactorRows != fh {
		return fmt.Errorf("engine: checkpoint factor rows %d != problem factor rows %d", ck.FactorRows, fh)
	}
	blocks := make([]*Block, len(ck.Slots))
	for i, b := range ck.Slots {
		blocks[i] = b.Clone()
	}
	p.Blocks = blocks
	p.StartSweep = ck.Sweep
	p.baseRotations = ck.Rotations
	p.TraceGram = ck.TraceGram
	p.Rows = ck.Rows
	if ck.FactorRows != ck.Rows {
		p.FactorRows = ck.FactorRows
	}
	return nil
}

// ckRun is the per-run shared checkpoint table: slots[p] is written by node
// p's goroutine right before the sweep-end allreduce of a checkpointed
// sweep (a fresh deep copy each time, so ownership of an assembled
// Checkpoint transfers cleanly to the hook), and read by node 0 right
// after. rot is node 0's accumulator of globally-reduced per-sweep
// rotation counts.
type ckRun struct {
	every   int
	slots   [][2]*Block
	rot     int
	barrier ckBarrier
}

// ckBarrierTimeout bounds a checkpoint-barrier wait; a peer that never
// arrives has already failed (exchange timeout, panic), and the waiters
// must surface an error rather than hang.
const ckBarrierTimeout = 60 * time.Second

// ckBarrier is a reusable n-party rendezvous for the node goroutines.
// Every backend runs its nodes as goroutines of this process, so the
// barrier can be a plain memory synchronization — deliberately NOT an
// allreduce: riding the machine's communication layer would charge
// virtual time and message counts to the cost model for what is pure
// checkpoint-capture memory ordering, making a durable service's modeled
// metrics drift from an in-memory one's on identical jobs.
type ckBarrier struct {
	mu    sync.Mutex
	n     int
	count int
	gen   chan struct{} // closed when the current generation completes
}

// wait blocks until all n parties arrived (the mutex orders everything
// published before any party's wait before every party's return).
func (b *ckBarrier) wait() error {
	b.mu.Lock()
	if b.gen == nil {
		b.gen = make(chan struct{})
	}
	ch := b.gen
	b.count++
	if b.count == b.n {
		b.count = 0
		b.gen = make(chan struct{})
		close(ch)
	}
	b.mu.Unlock()
	select {
	case <-ch:
		return nil
	case <-time.After(ckBarrierTimeout):
		return fmt.Errorf("engine: checkpoint barrier timed out (a peer node failed?)")
	}
}

// at reports whether the boundary after the given sweep index is a
// checkpoint boundary. The predicate is deterministic in sweep alone, so
// every node reaches the same decision without communicating.
func (c *ckRun) at(sweep int) bool {
	return c != nil && (sweep+1)%c.every == 0
}

// assemble builds the Checkpoint node 0 hands to the hook from the copies
// every node deposited this boundary.
func (c *ckRun) assemble(p *Problem, sweep int) *Checkpoint {
	ck := &Checkpoint{
		Dim:        p.Dim,
		Rows:       p.Rows,
		FactorRows: p.factorHeight(),
		Sweep:      sweep + 1,
		Rotations:  p.baseRotations + c.rot,
		TraceGram:  p.TraceGram,
		Slots:      make([]*Block, 2*len(c.slots)),
	}
	for node, pair := range c.slots {
		ck.Slots[2*node] = pair[0]
		ck.Slots[2*node+1] = pair[1]
	}
	return ck
}
