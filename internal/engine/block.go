package engine

import (
	"fmt"

	"repro/internal/matrix"
	"repro/internal/ordering"
)

// Block is the unit of data movement of the parallel algorithm: a group of
// columns of both the working matrix W and the accumulated factor U (the
// eigenvector matrix for the symmetric solve, V for the SVD), together with
// their original column indices.
type Block struct {
	ID   int
	Cols []int       // original column indices
	A    [][]float64 // working columns (W)
	U    [][]float64 // accumulated factor columns
}

// NumCols returns the number of columns in the block.
func (b *Block) NumCols() int { return len(b.Cols) }

// rawElems returns the number of payload elements a transition of this block
// carries in the analytic model: every A and U value, no encoding headers.
func (b *Block) rawElems() int {
	n := 0
	for k := range b.Cols {
		n += len(b.A[k]) + len(b.U[k])
	}
	return n
}

// BuildBlocks splits the m columns of the symmetric input into 2^(d+1)
// blocks per the ordering's partition, pairing each working column with the
// corresponding identity column of U.
func BuildBlocks(a *matrix.Dense, d int) ([]*Block, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("engine: matrix is %dx%d, want square", a.Rows, a.Cols)
	}
	return BuildFactorBlocks(a, d, a.Rows)
}

// BuildFactorBlocks splits the columns of a (any shape) into 2^(d+1) blocks,
// pairing working column c with the c-th identity column of a factor of
// height factorRows. The symmetric eigensolve uses factorRows = a.Rows; the
// SVD uses factorRows = a.Cols (accumulating V).
func BuildFactorBlocks(a *matrix.Dense, d, factorRows int) ([]*Block, error) {
	ranges, err := ordering.BlockRanges(a.Cols, d)
	if err != nil {
		return nil, err
	}
	blocks := make([]*Block, len(ranges))
	for id, r := range ranges {
		b := &Block{ID: id}
		for c := r.Start; c < r.End; c++ {
			ac := make([]float64, a.Rows)
			copy(ac, a.Col(c))
			uc := make([]float64, factorRows)
			uc[c] = 1
			b.Cols = append(b.Cols, c)
			b.A = append(b.A, ac)
			b.U = append(b.U, uc)
		}
		blocks[id] = b
	}
	return blocks, nil
}

// PairWithin rotates every column pair inside the block (step 1 of the
// paper's block algorithm), in ascending (i, j) order, on the reference
// kernel.
func PairWithin(b *Block, conv *ConvTracker) {
	for i := 0; i < len(b.Cols); i++ {
		for j := i + 1; j < len(b.Cols); j++ {
			RotatePair(b.A[i], b.A[j], b.U[i], b.U[j], conv)
		}
	}
}

// PairCross rotates every (column of x, column of y) pair — the pairing of
// two blocks (step 2 of the paper's block algorithm) — iterating x's columns
// in the outer loop, on the reference kernel. The fixed order keeps every
// solver flavor and backend numerically identical.
func PairCross(x, y *Block, conv *ConvTracker) {
	for i := range x.Cols {
		for j := range y.Cols {
			RotatePair(x.A[i], y.A[j], x.U[i], y.U[j], conv)
		}
	}
}

// PairWithinFused is PairWithin on the fused blocked kernels: same pairs in
// the same order, each streamed through cache once, with the worker's
// scratch carrying the column norms (see kernel.Scratch.Within).
func PairWithinFused(b *Block, sc *Scratch, conv *ConvTracker) {
	sc.Within(b.A, b.U, conv)
}

// PairCrossFused is PairCross on the fused blocked kernels (see
// kernel.Scratch.Cross).
func PairCrossFused(x, y *Block, sc *Scratch, conv *ConvTracker) {
	sc.Cross(x.A, x.U, y.A, y.U, conv)
}

// pairWithin dispatches one intra-block pairing to the fused kernels when
// the run's backend asked for them (sc non-nil) and to the reference kernel
// otherwise.
func pairWithin(b *Block, sc *Scratch, conv *ConvTracker) {
	if sc != nil {
		PairWithinFused(b, sc, conv)
		return
	}
	PairWithin(b, conv)
}

// pairCross dispatches one block pairing like pairWithin.
func pairCross(x, y *Block, sc *Scratch, conv *ConvTracker) {
	if sc != nil {
		PairCrossFused(x, y, sc, conv)
		return
	}
	PairCross(x, y, conv)
}

// PairCrossSlice rotates x's columns against the sub-range [lo, hi) of y's
// columns. It is the packet-granular kernel of the pipelined solver: packet
// q of an iteration covers one such slice of the moving block.
func PairCrossSlice(x, y *Block, lo, hi int, conv *ConvTracker) {
	for i := range x.Cols {
		for j := lo; j < hi; j++ {
			RotatePair(x.A[i], y.A[j], x.U[i], y.U[j], conv)
		}
	}
}

// Gather writes the blocks' columns back into full matrices W and U
// (allocated by the caller with the original dimensions).
func Gather(blocks []*Block, w, u *matrix.Dense) {
	for _, b := range blocks {
		for k, c := range b.Cols {
			w.SetCol(c, b.A[k])
			u.SetCol(c, b.U[k])
		}
	}
}

// EncodeBlock flattens a block into a []float64 message for transport over
// the emulated machine: [id, ncols, col₀, m A-values, fm U-values, ...].
// DecodeBlock reverses it. m is the working-column height, fm the factor
// height (equal for the symmetric eigensolve; fm = cols for the SVD blocks).
func EncodeBlock(b *Block, m, fm int) []float64 {
	return appendBlock(make([]float64, 0, encodedLen(b, m, fm)), b)
}

// encodedLen returns the size of b's encoding when its columns have heights
// m and fm.
func encodedLen(b *Block, m, fm int) int { return 2 + len(b.Cols)*(m+fm+1) }

// appendBlock appends b's encoding to msg. With msg's capacity sized by
// encodedLen it writes in place, without growing.
func appendBlock(msg []float64, b *Block) []float64 {
	msg = append(msg, float64(b.ID), float64(len(b.Cols)))
	for k := range b.Cols {
		msg = append(msg, float64(b.Cols[k]))
		msg = append(msg, b.A[k]...)
		msg = append(msg, b.U[k]...)
	}
	return msg
}

// DecodeBlock parses a message produced by EncodeBlock. The returned
// block's columns alias msg, which the caller hands over: the machine
// transfers ownership of a received payload to its receiver, so decoding
// copies nothing.
func DecodeBlock(msg []float64, m, fm int) (*Block, error) {
	b, rest, err := decodeBlockPrefix(msg, m, fm)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("engine: %d trailing values after block message", len(rest))
	}
	return b, nil
}

// decodeBlockPrefix parses one block from the front of msg, returning the
// remainder — the sequential decoder behind DecodeBlock and DecodeBlocks.
// Each column is a capacity-capped subslice of msg, so appending to one can
// never overwrite its neighbor.
func decodeBlockPrefix(msg []float64, m, fm int) (*Block, []float64, error) {
	if len(msg) < 2 {
		return nil, nil, fmt.Errorf("engine: block message too short (%d)", len(msg))
	}
	// Bound the column count by what the message can hold before
	// multiplying, and compare as floats: a negative, NaN or huge header
	// must neither wrap the length computation nor hit an
	// implementation-defined float-to-int conversion.
	stride := m + fm + 1
	if hdr := msg[1]; !(hdr >= 0 && hdr <= float64((len(msg)-2)/stride)) {
		return nil, nil, fmt.Errorf("engine: block message length %d cannot hold %g columns of %d values", len(msg), hdr, stride)
	}
	n := int(msg[1])
	b := &Block{
		ID:   int(msg[0]),
		Cols: make([]int, n),
		A:    make([][]float64, n),
		U:    make([][]float64, n),
	}
	off := 2
	for k := 0; k < n; k++ {
		b.Cols[k] = int(msg[off])
		off++
		b.A[k] = msg[off : off+m : off+m]
		off += m
		b.U[k] = msg[off : off+fm : off+fm]
		off += fm
	}
	return b, msg[off:], nil
}

// EncodeBlocks concatenates several blocks into one combined message — the
// "message combining" of the pipelined CC-cube, where packets sharing a link
// within a stage travel as one message. Every block is written straight
// into one buffer of the exact combined size.
func EncodeBlocks(blocks []*Block, m, fm int) []float64 {
	size := 1
	for _, b := range blocks {
		size += encodedLen(b, m, fm)
	}
	msg := append(make([]float64, 0, size), float64(len(blocks)))
	for _, b := range blocks {
		msg = appendBlock(msg, b)
	}
	return msg
}

// DecodeBlocks parses a combined message produced by EncodeBlocks. Like
// DecodeBlock, the blocks' columns alias msg.
func DecodeBlocks(msg []float64, m, fm int) ([]*Block, error) {
	if len(msg) < 1 {
		return nil, fmt.Errorf("engine: empty combined message")
	}
	// Every part carries at least its two-value header.
	if hdr := msg[0]; !(hdr >= 0 && hdr <= float64((len(msg)-1)/2)) {
		return nil, fmt.Errorf("engine: combined message length %d cannot hold %g parts", len(msg), hdr)
	}
	n := int(msg[0])
	rest := msg[1:]
	out := make([]*Block, 0, n)
	for k := 0; k < n; k++ {
		b, r, err := decodeBlockPrefix(rest, m, fm)
		if err != nil {
			return nil, fmt.Errorf("engine: combined message part %d: %w", k, err)
		}
		rest = r
		out = append(out, b)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("engine: %d trailing values after combined message", len(rest))
	}
	return out, nil
}

// SplitBlock partitions a block's columns into q contiguous slices of
// near-equal size (first slices one column larger when uneven). The slices
// share the parent's column storage, so rotating a slice rotates the parent.
// Slices may be empty when q exceeds the column count.
func SplitBlock(b *Block, q int) []*Block {
	n := b.NumCols()
	base := n / q
	rem := n % q
	out := make([]*Block, q)
	start := 0
	for i := 0; i < q; i++ {
		size := base
		if i < rem {
			size++
		}
		out[i] = &Block{
			ID:   b.ID,
			Cols: b.Cols[start : start+size],
			A:    b.A[start : start+size],
			U:    b.U[start : start+size],
		}
		start += size
	}
	return out
}

// AssembleBlock concatenates slices (as produced by SplitBlock on the
// sender) back into one block.
func AssembleBlock(slices []*Block) *Block {
	out := &Block{}
	for i, s := range slices {
		if i == 0 {
			out.ID = s.ID
		}
		out.Cols = append(out.Cols, s.Cols...)
		out.A = append(out.A, s.A...)
		out.U = append(out.U, s.U...)
	}
	return out
}
