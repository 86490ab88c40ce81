// Package store is the durability layer of the batch-solve service: an
// append-only, CRC-framed journal of job lifecycle records (spec, start,
// terminal transition) plus one snapshot file per in-flight job holding
// its latest sweep-boundary engine checkpoint. Together they make a
// `jacobitool serve -data` instance crash-safe: on restart the service
// replays the journal — finished jobs restore into the job table and the
// result cache, still-queued jobs re-enqueue, and jobs that were running
// resume from their last checkpoint instead of from scratch (see
// internal/service's recovery and DESIGN.md §10 "Durability").
//
// Durability discipline: every journal append is fsync'd before it is
// acknowledged, and checkpoint snapshots are written to a temporary file,
// fsync'd, and renamed into place (with a directory sync), so a crash can
// tear at most the journal's final frame — which replay detects by CRC
// and truncates. Version skew is never silently truncated: a journal or
// snapshot written by a different format version fails to open instead.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/engine"
)

// ErrNoCheckpoint reports that a job has no checkpoint snapshot on disk.
var ErrNoCheckpoint = errors.New("store: no checkpoint")

const (
	logName  = "journal.jlog"
	ckptDir  = "checkpoints"
	ckptExt  = ".jckp"
	tmpExt   = ".tmp"
	hdrBytes = 8 // magic + file version
)

// Store is one open data directory. All methods are safe for concurrent
// use; journal appends are serialized and individually fsync'd.
type Store struct {
	dir string

	mu      sync.Mutex
	f       *os.File
	records []Record // journal contents replayed at Open
	// obs / ckObs are the replication hooks (see sidelog.go): obs observes
	// fsync'd appends in order, ckObs observes saved checkpoints.
	obs   func(Record)
	ckObs func(id string, ck *engine.Checkpoint)
}

// Open opens (creating if needed) the data directory, replays the journal
// and truncates a torn tail frame left by a crash. The replayed records
// are available through Records until the first Append.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, ckptDir), 0o777); err != nil {
		return nil, fmt.Errorf("store: create data dir: %w", err)
	}
	path := filepath.Join(dir, logName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o666)
	if err != nil {
		return nil, fmt.Errorf("store: open journal: %w", err)
	}
	if err := lockFile(f); err != nil {
		f.Close()
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: stat journal: %w", err)
	}
	s := &Store{dir: dir, f: f}
	if st.Size() == 0 {
		if err := s.writeHeader(); err != nil {
			f.Close()
			return nil, err
		}
		return s, nil
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: read journal: %w", err)
	}
	records, good, err := ReadJournal(data)
	if err != nil {
		f.Close()
		return nil, err
	}
	s.records = records
	if good < int64(len(data)) {
		// Torn tail from a crash mid-append: everything before it replayed
		// cleanly, so drop the fragment and continue appending after it.
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: truncate torn journal tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: sync truncated journal: %w", err)
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: seek journal end: %w", err)
	}
	return s, nil
}

// writeHeader stamps a fresh journal. Caller holds no lock (Open only).
func (s *Store) writeHeader() error {
	hdr := make([]byte, 0, hdrBytes)
	hdr = append(hdr, logMagic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, fileVersion)
	if _, err := s.f.Write(hdr); err != nil {
		return fmt.Errorf("store: write journal header: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("store: sync journal header: %w", err)
	}
	return s.syncDir(s.dir)
}

// ReadJournal decodes a full journal image, returning the records it
// holds and the offset of the first undecodable byte (== len(data) when
// the journal is clean). A CRC or length failure in the final frame is a
// torn tail and simply ends the replay at that offset; a header or
// record-version mismatch is version skew and returns an error instead —
// truncating a newer build's data would destroy it.
func ReadJournal(data []byte) ([]Record, int64, error) {
	if len(data) < hdrBytes {
		return nil, 0, fmt.Errorf("store: journal of %d bytes has no header", len(data))
	}
	if string(data[:4]) != logMagic {
		return nil, 0, fmt.Errorf("store: bad journal magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != fileVersion {
		return nil, 0, fmt.Errorf("store: journal file version %d, this build reads %d", v, fileVersion)
	}
	var records []Record
	off := int64(hdrBytes)
	for {
		rest := data[off:]
		if len(rest) == 0 {
			return records, off, nil
		}
		if len(rest) < 8 {
			return records, off, nil // torn frame header
		}
		n := binary.LittleEndian.Uint32(rest)
		crc := binary.LittleEndian.Uint32(rest[4:])
		if n > maxFrameSize || int(n) < 0 || len(rest) < 8+int(n) {
			return records, off, nil // torn or garbage frame
		}
		payload := rest[8 : 8+int(n)]
		if crc32.Checksum(payload, castagnoli) != crc {
			return records, off, nil // bit rot or torn write
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			// The frame's CRC passed, so this is not corruption but a
			// payload this build cannot read (version skew): refuse.
			return nil, 0, fmt.Errorf("store: journal record at offset %d: %w", off, err)
		}
		records = append(records, rec)
		off += 8 + int64(n)
	}
}

// Records returns the journal records replayed at Open (appends after Open
// are not reflected — recovery reads once, then writes).
func (s *Store) Records() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.records
}

// Append serializes, frames and fsyncs one record onto the journal. A
// record whose payload exceeds the frame bound is rejected up front:
// written anyway, ReadJournal would classify the oversized frame as torn
// garbage and the next Open would silently truncate it plus everything
// after it.
func (s *Store) Append(rec Record) error {
	payload := encodeRecord(rec)
	if len(payload) > maxFrameSize {
		return fmt.Errorf("store: record payload of %d bytes exceeds the %d frame bound", len(payload), maxFrameSize)
	}
	frame := make([]byte, 0, 8+len(payload))
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, castagnoli))
	frame = append(frame, payload...)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return errors.New("store: closed")
	}
	if _, err := s.f.Write(frame); err != nil {
		return fmt.Errorf("store: append journal record: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("store: sync journal: %w", err)
	}
	if s.obs != nil {
		// Under s.mu on purpose: observers see records in exactly the order
		// the journal persisted them (the shipping pipeline depends on it).
		s.obs(rec)
	}
	return nil
}

// Compact atomically replaces the journal's contents with the given
// records — the service calls it after recovery with the records of the
// jobs it retained, so restart cycles do not grow the journal without
// bound.
func (s *Store) Compact(records []Record) error {
	img := make([]byte, 0, 1<<16)
	img = append(img, logMagic...)
	img = binary.LittleEndian.AppendUint32(img, fileVersion)
	for _, rec := range records {
		payload := encodeRecord(rec)
		if len(payload) > maxFrameSize {
			return fmt.Errorf("store: record payload of %d bytes exceeds the %d frame bound", len(payload), maxFrameSize)
		}
		img = binary.LittleEndian.AppendUint32(img, uint32(len(payload)))
		img = binary.LittleEndian.AppendUint32(img, crc32.Checksum(payload, castagnoli))
		img = append(img, payload...)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return errors.New("store: closed")
	}
	path := filepath.Join(s.dir, logName)
	tmp := path + tmpExt
	if err := writeFileSync(tmp, img); err != nil {
		return err // journal untouched; the store stays usable
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("store: swap compacted journal: %w", err)
	}
	// From here on the old handle references an unlinked inode: any
	// failure to adopt the new one must poison the store rather than let
	// later fsync'd Appends be "acknowledged" into a deleted file and
	// silently lost on restart.
	poison := func(err error) error {
		s.f.Close()
		s.f = nil
		return fmt.Errorf("store: compaction could not adopt the new journal (store now closed, appends will fail): %w", err)
	}
	if err := s.syncDir(s.dir); err != nil {
		return poison(err)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0o666)
	if err != nil {
		return poison(err)
	}
	// The flock lives on the open file description: take it on the new
	// inode before releasing the old handle, so the directory is never
	// observably unlocked.
	if err := lockFile(f); err != nil {
		f.Close()
		return poison(err)
	}
	s.f.Close()
	s.f = f
	s.records = records
	return nil
}

// ckptPath returns the snapshot path for a job ID. IDs are service-issued
// ("job-N"), never caller-controlled paths; the base guard keeps a
// corrupted journal from escaping the directory anyway.
func (s *Store) ckptPath(id string) (string, error) {
	if id == "" || id != filepath.Base(id) {
		return "", fmt.Errorf("store: invalid checkpoint id %q", id)
	}
	return filepath.Join(s.dir, ckptDir, id+ckptExt), nil
}

// SaveCheckpoint atomically replaces the job's snapshot file with the
// checkpoint (write-temp, fsync, rename, dir sync).
func (s *Store) SaveCheckpoint(id string, ck *engine.Checkpoint) error {
	path, err := s.ckptPath(id)
	if err != nil {
		return err
	}
	if err := writeFileSync(path+tmpExt, encodeCheckpoint(ck)); err != nil {
		return err
	}
	if err := os.Rename(path+tmpExt, path); err != nil {
		return fmt.Errorf("store: install checkpoint %s: %w", id, err)
	}
	if err := s.syncDir(filepath.Dir(path)); err != nil {
		return err
	}
	s.mu.Lock()
	obs := s.ckObs
	s.mu.Unlock()
	if obs != nil {
		obs(id, ck)
	}
	return nil
}

// LoadCheckpoint reads and validates the job's snapshot; ErrNoCheckpoint
// when none exists.
func (s *Store) LoadCheckpoint(id string) (*engine.Checkpoint, error) {
	path, err := s.ckptPath(id)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, ErrNoCheckpoint
	}
	if err != nil {
		return nil, fmt.Errorf("store: read checkpoint %s: %w", id, err)
	}
	ck, err := decodeCheckpoint(data)
	if err != nil {
		return nil, fmt.Errorf("store: checkpoint %s: %w", id, err)
	}
	return ck, nil
}

// PruneCheckpoints removes every snapshot whose job ID the keep predicate
// rejects — recovery's sweep for orphans left by a crash between a
// terminal journal append and its eager DeleteCheckpoint (or by a job's
// eviction). Returns the number of snapshots removed.
func (s *Store) PruneCheckpoints(keep func(id string) bool) (int, error) {
	entries, err := os.ReadDir(filepath.Join(s.dir, ckptDir))
	if err != nil {
		return 0, fmt.Errorf("store: scan checkpoints: %w", err)
	}
	pruned := 0
	for _, e := range entries {
		name := e.Name()
		id, isCkpt := strings.CutSuffix(name, ckptExt)
		if !isCkpt {
			// Stray temp file from a crash mid-save: always garbage.
			if !strings.HasSuffix(name, tmpExt) {
				continue
			}
			id = ""
		}
		if id != "" && keep(id) {
			continue
		}
		if err := os.Remove(filepath.Join(s.dir, ckptDir, name)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return pruned, fmt.Errorf("store: prune checkpoint %s: %w", name, err)
		}
		pruned++
	}
	return pruned, nil
}

// DeleteCheckpoint removes the job's snapshot (missing is fine: terminal
// jobs delete eagerly, and recovery prunes whatever a crash orphaned).
func (s *Store) DeleteCheckpoint(id string) error {
	path, err := s.ckptPath(id)
	if err != nil {
		return err
	}
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("store: delete checkpoint %s: %w", id, err)
	}
	return nil
}

// Close releases the journal handle. Outstanding appends fail afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}

// Dir returns the data directory the store was opened on.
func (s *Store) Dir() string { return s.dir }

// writeFileSync writes data to path and fsyncs it before returning.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o666)
	if err != nil {
		return fmt.Errorf("store: create %s: %w", path, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("store: write %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: sync %s: %w", path, err)
	}
	return f.Close()
}

// syncDir fsyncs a directory so renames and creates within it are durable.
func (s *Store) syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: open dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: sync dir %s: %w", dir, err)
	}
	return nil
}
