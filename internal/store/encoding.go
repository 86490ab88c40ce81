package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/engine"
)

// This file is the store's wire layer: the versioned, CRC-guarded binary
// encodings of the journal records and the checkpoint snapshots. Every
// decoder is total — truncated, bit-flipped or version-skewed input
// returns an error, never panics or over-allocates — which the package's
// fuzz targets enforce.
//
// Journal file layout:
//
//	"JLOG" u32(fileVersion)                      file header
//	{ u32(len) u32(crc32c(payload)) payload }*   one frame per record
//
// Record payload:
//
//	u8(recordVersion) u8(kind)
//	str(ID) str(Key) str(Backend) str(State) str(Err)
//	u32(Restarts) u64(Fp)
//	blob(Spec) blob(Result)
//
// where str/blob are u32 length-prefixed byte strings. Integers are
// little-endian throughout.
//
// Checkpoint file layout:
//
//	"JCKP" u32(fileVersion) u32(crc32c(payload)) payload
//
// Checkpoint payload:
//
//	u8(ckVersion)
//	u32(dim) u32(rows) u32(factorRows) u32(sweep)
//	u64(rotations) u64(bits(traceGram))
//	u32(nslots) nslots × slot
//
// Slot:
//
//	u32(id) u32(ncols) ncols × u32(colIndex)
//	ncols × rows × f64(A)  ncols × factorRows × f64(U)

const (
	logMagic     = "JLOG"
	ckptMagic    = "JCKP"
	fileVersion  = 1
	recVersion   = 1
	ckptVersion  = 1
	maxFrameSize = 1 << 30 // one record never legitimately reaches 1 GiB
)

// castagnoli is the CRC polynomial every frame is guarded with.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Kind tags one journal record.
type Kind uint8

const (
	// KindSubmitted records an accepted job: its ID, idempotency key,
	// resolved backend, and the encoded spec. The store treats the spec
	// as opaque bytes; the service writes an internal/frame frame and
	// still reads the all-JSON specs of older journals.
	KindSubmitted Kind = 1
	// KindStarted records that a worker picked the job up.
	KindStarted Kind = 2
	// KindFinished records a terminal transition: State is the terminal
	// state, Result the JSON-encoded result of done jobs, Err the failure
	// or cancellation cause otherwise.
	KindFinished Kind = 3
	// KindRestarted records a recovery re-enqueue of an in-flight job;
	// Restarts is the job's cumulative restart count.
	KindRestarted Kind = 4
)

// String names the kind as the journal documentation does.
func (k Kind) String() string {
	switch k {
	case KindSubmitted:
		return "submitted"
	case KindStarted:
		return "started"
	case KindFinished:
		return "finished"
	case KindRestarted:
		return "restarted"
	}
	return fmt.Sprintf("kind %d", uint8(k))
}

// Record is one journal entry. Kinds use the subset of fields their
// documentation names; the rest stay zero.
type Record struct {
	Kind     Kind
	ID       string
	Key      string
	Backend  string
	State    string
	Err      string
	Restarts int
	// Fp is the job's result-cache fingerprint, persisted so finished jobs
	// warm the cache on recovery without re-hashing (or even retaining)
	// the input matrix.
	Fp     uint64
	Spec   []byte
	Result []byte
}

// appendStr appends a u32 length-prefixed byte string.
func appendStr(buf []byte, s []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

// encodeRecord serializes one record payload (frame header excluded).
func encodeRecord(r Record) []byte {
	buf := make([]byte, 0, 64+len(r.Spec)+len(r.Result))
	buf = append(buf, recVersion, byte(r.Kind))
	buf = appendStr(buf, []byte(r.ID))
	buf = appendStr(buf, []byte(r.Key))
	buf = appendStr(buf, []byte(r.Backend))
	buf = appendStr(buf, []byte(r.State))
	buf = appendStr(buf, []byte(r.Err))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Restarts))
	buf = binary.LittleEndian.AppendUint64(buf, r.Fp)
	buf = appendStr(buf, r.Spec)
	buf = appendStr(buf, r.Result)
	return buf
}

// reader walks a payload with bounds-checked primitive reads.
type reader struct {
	buf []byte
	off int
}

func (rd *reader) u8() (byte, error) {
	if rd.off+1 > len(rd.buf) {
		return 0, fmt.Errorf("store: truncated at byte %d (want u8)", rd.off)
	}
	v := rd.buf[rd.off]
	rd.off++
	return v, nil
}

func (rd *reader) u32() (uint32, error) {
	if rd.off+4 > len(rd.buf) {
		return 0, fmt.Errorf("store: truncated at byte %d (want u32)", rd.off)
	}
	v := binary.LittleEndian.Uint32(rd.buf[rd.off:])
	rd.off += 4
	return v, nil
}

func (rd *reader) u64() (uint64, error) {
	if rd.off+8 > len(rd.buf) {
		return 0, fmt.Errorf("store: truncated at byte %d (want u64)", rd.off)
	}
	v := binary.LittleEndian.Uint64(rd.buf[rd.off:])
	rd.off += 8
	return v, nil
}

func (rd *reader) f64() (float64, error) {
	bits, err := rd.u64()
	return math.Float64frombits(bits), err
}

// bytes reads a u32 length-prefixed byte string. The length is validated
// against the remaining payload before any allocation, so a corrupt length
// cannot force a huge make().
func (rd *reader) bytes() ([]byte, error) {
	n, err := rd.u32()
	if err != nil {
		return nil, err
	}
	if int(n) < 0 || rd.off+int(n) > len(rd.buf) {
		return nil, fmt.Errorf("store: string length %d exceeds remaining %d bytes", n, len(rd.buf)-rd.off)
	}
	out := make([]byte, n)
	copy(out, rd.buf[rd.off:rd.off+int(n)])
	rd.off += int(n)
	return out, nil
}

func (rd *reader) str() (string, error) {
	b, err := rd.bytes()
	return string(b), err
}

func (rd *reader) done() error {
	if rd.off != len(rd.buf) {
		return fmt.Errorf("store: %d trailing bytes after payload", len(rd.buf)-rd.off)
	}
	return nil
}

// decodeRecord parses one record payload.
func decodeRecord(payload []byte) (Record, error) {
	rd := &reader{buf: payload}
	var rec Record
	ver, err := rd.u8()
	if err != nil {
		return rec, err
	}
	if ver != recVersion {
		return rec, fmt.Errorf("store: record version %d, this build reads %d", ver, recVersion)
	}
	kind, err := rd.u8()
	if err != nil {
		return rec, err
	}
	rec.Kind = Kind(kind)
	if rec.Kind < KindSubmitted || rec.Kind > KindRestarted {
		return rec, fmt.Errorf("store: unknown record kind %d", kind)
	}
	if rec.ID, err = rd.str(); err != nil {
		return rec, err
	}
	if rec.Key, err = rd.str(); err != nil {
		return rec, err
	}
	if rec.Backend, err = rd.str(); err != nil {
		return rec, err
	}
	if rec.State, err = rd.str(); err != nil {
		return rec, err
	}
	if rec.Err, err = rd.str(); err != nil {
		return rec, err
	}
	restarts, err := rd.u32()
	if err != nil {
		return rec, err
	}
	rec.Restarts = int(restarts)
	if rec.Fp, err = rd.u64(); err != nil {
		return rec, err
	}
	if rec.Spec, err = rd.bytes(); err != nil {
		return rec, err
	}
	if rec.Result, err = rd.bytes(); err != nil {
		return rec, err
	}
	if err := rd.done(); err != nil {
		return rec, err
	}
	return rec, nil
}

// ckptHeaderBytes is the fixed part of a checkpoint image: magic,
// version, CRC, then the payload's version byte, four u32 dims, two u64
// counters and the u32 slot count.
const ckptHeaderBytes = 12 + 1 + 4*4 + 2*8 + 4

// CheckpointSize is the exact file image size, in bytes, of a valid
// checkpoint of the given shape: 2^(dim+1) slots holding factorRows
// columns in all, each column rows+factorRows float64s plus its u32 index.
// Callers use it to predict a save's cost before the checkpoint exists.
func CheckpointSize(dim, rows, factorRows int) int64 {
	slots := int64(2) << uint(dim)
	return ckptHeaderBytes + 8*slots + int64(factorRows)*(4+8*int64(rows+factorRows))
}

// encodeCheckpoint serializes a checkpoint into the full file image
// (magic, version, CRC, payload). The image length is computed first, so
// the buffer is allocated exactly once and written in place.
func encodeCheckpoint(ck *engine.Checkpoint) []byte {
	size := ckptHeaderBytes
	for _, b := range ck.Slots {
		size += 8 + 4*len(b.Cols)
		for _, col := range b.A {
			size += 8 * len(col)
		}
		for _, col := range b.U {
			size += 8 * len(col)
		}
	}
	le := binary.LittleEndian
	//lint:allow boundeddecode encode side: size is measured from a live checkpoint, not read from wire input
	out := make([]byte, size)
	copy(out, ckptMagic)
	le.PutUint32(out[4:], fileVersion)
	out[12] = ckptVersion
	le.PutUint32(out[13:], uint32(ck.Dim))
	le.PutUint32(out[17:], uint32(ck.Rows))
	le.PutUint32(out[21:], uint32(ck.FactorRows))
	le.PutUint32(out[25:], uint32(ck.Sweep))
	le.PutUint64(out[29:], uint64(ck.Rotations))
	le.PutUint64(out[37:], math.Float64bits(ck.TraceGram))
	le.PutUint32(out[45:], uint32(len(ck.Slots)))
	off := ckptHeaderBytes
	putCols := func(cols [][]float64) {
		for _, col := range cols {
			dst := out[off : off+8*len(col)]
			for i, v := range col {
				le.PutUint64(dst[8*i:], math.Float64bits(v))
			}
			off += len(dst)
		}
	}
	for _, b := range ck.Slots {
		le.PutUint32(out[off:], uint32(b.ID))
		le.PutUint32(out[off+4:], uint32(len(b.Cols)))
		off += 8
		for _, c := range b.Cols {
			le.PutUint32(out[off:], uint32(c))
			off += 4
		}
		putCols(b.A)
		putCols(b.U)
	}
	le.PutUint32(out[8:], crc32.Checksum(out[12:], castagnoli))
	return out
}

// decodeCheckpoint parses a checkpoint file image. Structural validation
// (slot count vs dimension, column heights) is engine.Checkpoint.Validate's
// job and runs before the decoded value is returned.
func decodeCheckpoint(data []byte) (*engine.Checkpoint, error) {
	if len(data) < 12 {
		return nil, fmt.Errorf("store: checkpoint file of %d bytes is too short", len(data))
	}
	if string(data[:4]) != ckptMagic {
		return nil, fmt.Errorf("store: bad checkpoint magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != fileVersion {
		return nil, fmt.Errorf("store: checkpoint file version %d, this build reads %d", v, fileVersion)
	}
	crc := binary.LittleEndian.Uint32(data[8:])
	payload := data[12:]
	if crc32.Checksum(payload, castagnoli) != crc {
		return nil, fmt.Errorf("store: checkpoint CRC mismatch")
	}
	rd := &reader{buf: payload}
	ver, err := rd.u8()
	if err != nil {
		return nil, err
	}
	if ver != ckptVersion {
		return nil, fmt.Errorf("store: checkpoint version %d, this build reads %d", ver, ckptVersion)
	}
	ck := &engine.Checkpoint{}
	dims := []*int{&ck.Dim, &ck.Rows, &ck.FactorRows, &ck.Sweep}
	for _, dst := range dims {
		v, err := rd.u32()
		if err != nil {
			return nil, err
		}
		*dst = int(v)
	}
	rot, err := rd.u64()
	if err != nil {
		return nil, err
	}
	ck.Rotations = int(rot)
	if ck.TraceGram, err = rd.f64(); err != nil {
		return nil, err
	}
	nslots, err := rd.u32()
	if err != nil {
		return nil, err
	}
	// Reject shapes the engine could never have produced before any
	// column allocation sizes on them.
	if ck.Dim < 0 || ck.Dim > 16 || nslots != uint32(2<<uint(ck.Dim&31)) {
		return nil, fmt.Errorf("store: checkpoint has %d slots for dimension %d", nslots, ck.Dim)
	}
	if ck.Rows <= 0 || ck.FactorRows <= 0 || ck.Rows > 1<<24 || ck.FactorRows > 1<<24 {
		return nil, fmt.Errorf("store: checkpoint heights %dx%d out of range", ck.Rows, ck.FactorRows)
	}
	ck.Slots = make([]*engine.Block, nslots)
	for i := range ck.Slots {
		b := &engine.Block{}
		id, err := rd.u32()
		if err != nil {
			return nil, err
		}
		b.ID = int(id)
		ncols, err := rd.u32()
		if err != nil {
			return nil, err
		}
		// Each column costs 8·(rows+factorRows) payload bytes; bound the
		// claimed count by what the remaining payload can actually hold.
		colBytes := 8 * (ck.Rows + ck.FactorRows)
		if int(ncols) < 0 || int(ncols) > (len(payload)-rd.off)/colBytes+1 {
			return nil, fmt.Errorf("store: checkpoint slot %d claims %d columns beyond the payload", i, ncols)
		}
		b.Cols = make([]int, ncols)
		for k := range b.Cols {
			c, err := rd.u32()
			if err != nil {
				return nil, err
			}
			b.Cols[k] = int(c)
		}
		b.A = make([][]float64, ncols)
		b.U = make([][]float64, ncols)
		for k := range b.A {
			col := make([]float64, ck.Rows)
			for r := range col {
				if col[r], err = rd.f64(); err != nil {
					return nil, err
				}
			}
			b.A[k] = col
		}
		for k := range b.U {
			col := make([]float64, ck.FactorRows)
			for r := range col {
				if col[r], err = rd.f64(); err != nil {
					return nil, err
				}
			}
			b.U[k] = col
		}
		ck.Slots[i] = b
	}
	if err := rd.done(); err != nil {
		return nil, err
	}
	if err := ck.Validate(); err != nil {
		return nil, err
	}
	return ck, nil
}
