package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"repro/internal/engine"
	"repro/internal/matrix"
)

// FuzzJournalDecode: arbitrary bytes through the journal reader must
// either replay cleanly or error/truncate — never panic, never allocate
// absurdly. Seeds cover a valid journal, truncations, bit flips and
// version skew.
func FuzzJournalDecode(f *testing.F) {
	img := []byte(logMagic)
	img = binary.LittleEndian.AppendUint32(img, fileVersion)
	for _, rec := range []Record{
		{Kind: KindSubmitted, ID: "job-1", Key: "k", Backend: "emulated", Spec: []byte(`{"Dim":2}`)},
		{Kind: KindFinished, ID: "job-1", State: "done", Result: []byte(`{}`)},
	} {
		payload := encodeRecord(rec)
		img = binary.LittleEndian.AppendUint32(img, uint32(len(payload)))
		img = binary.LittleEndian.AppendUint32(img, crcOf(payload))
		img = append(img, payload...)
	}
	f.Add(img)
	f.Add(img[:len(img)-3])
	flipped := append([]byte(nil), img...)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)
	skew := append([]byte(nil), img...)
	skew[4] = 9
	f.Add(skew)
	f.Add([]byte{})
	f.Add([]byte("JLOG"))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, good, err := ReadJournal(data)
		if err != nil {
			return
		}
		if good < hdrBytes || good > int64(len(data)) {
			t.Fatalf("good offset %d outside [%d,%d]", good, hdrBytes, len(data))
		}
		// Whatever replayed must re-encode and replay identically
		// (decode/encode round trip is the recovery+compaction path).
		img := []byte(logMagic)
		img = binary.LittleEndian.AppendUint32(img, fileVersion)
		for _, rec := range recs {
			payload := encodeRecord(rec)
			img = binary.LittleEndian.AppendUint32(img, uint32(len(payload)))
			img = binary.LittleEndian.AppendUint32(img, crcOf(payload))
			img = append(img, payload...)
		}
		again, good2, err := ReadJournal(img)
		if err != nil || good2 != int64(len(img)) || len(again) != len(recs) {
			t.Fatalf("re-encoded journal does not replay: err=%v good=%d/%d n=%d/%d", err, good2, len(img), len(again), len(recs))
		}
	})
}

// checkpointSeed hand-encodes a dimension-0 checkpoint (one node, two
// single-column slots with heights 2x2) whose slots carry the given
// column IDs.
func checkpointSeed(cols [2]uint32) []byte {
	payload := []byte{ckptVersion}
	payload = binary.LittleEndian.AppendUint32(payload, 0) // dim
	payload = binary.LittleEndian.AppendUint32(payload, 2) // rows
	payload = binary.LittleEndian.AppendUint32(payload, 2) // factorRows
	payload = binary.LittleEndian.AppendUint32(payload, 1) // sweep
	payload = binary.LittleEndian.AppendUint64(payload, 12)
	payload = binary.LittleEndian.AppendUint64(payload, 0x3ff0000000000000) // traceGram = 1.0
	payload = binary.LittleEndian.AppendUint32(payload, 2)                  // nslots
	for slot := 0; slot < 2; slot++ {
		payload = binary.LittleEndian.AppendUint32(payload, uint32(slot)) // id
		payload = binary.LittleEndian.AppendUint32(payload, 1)            // ncols
		payload = binary.LittleEndian.AppendUint32(payload, cols[slot])   // col index
		// The A column, then the U column, all ones.
		for v := 0; v < 4; v++ {
			payload = binary.LittleEndian.AppendUint64(payload, 0x3ff0000000000000)
		}
	}
	img := []byte(ckptMagic)
	img = binary.LittleEndian.AppendUint32(img, fileVersion)
	img = binary.LittleEndian.AppendUint32(img, crcOf(payload))
	return append(img, payload...)
}

// FuzzCheckpointDecode: arbitrary bytes through the checkpoint decoder
// must error or produce a checkpoint that re-encodes to the same bytes and
// restores and gathers into full factors — never panic.
func FuzzCheckpointDecode(f *testing.F) {
	img := checkpointSeed([2]uint32{0, 1})
	// Well-framed checkpoints whose column IDs do not name each factor
	// column exactly once: the decoder must reject them.
	f.Add(checkpointSeed([2]uint32{0, 99}))
	f.Add(checkpointSeed([2]uint32{1, 1}))
	f.Add(img)
	f.Add(img[:len(img)-5])
	flipped := append([]byte(nil), img...)
	flipped[14] ^= 0x80
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte("JCKPxxxxyyyy"))

	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := decodeCheckpoint(data)
		if err != nil {
			return
		}
		if !bytes.Equal(encodeCheckpoint(ck), data) {
			t.Fatal("decoded checkpoint does not re-encode to the same bytes")
		}
		prob := &engine.Problem{Dim: ck.Dim}
		if err := prob.Restore(ck); err != nil {
			t.Fatalf("decoded checkpoint does not restore: %v", err)
		}
		engine.Gather(prob.Blocks, matrix.NewDense(ck.Rows, ck.FactorRows), matrix.NewDense(ck.FactorRows, ck.FactorRows))
	})
}

// crcOf is a test shorthand for the frame checksum.
func crcOf(payload []byte) uint32 {
	return crc32.Checksum(payload, castagnoli)
}
