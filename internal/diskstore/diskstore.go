// Package diskstore is the durable, log-structured chunk store a
// blockserver keeps its replicas in: the missing layer between the paper's
// in-process conversion service and its deployment claim that compressed
// chunks live in durable block storage and survive machine restarts.
//
// The design is the classic append-only log plus in-memory index:
//
//   - Chunks are appended to segment files (seg-<seq>.log) as CRC32C-framed
//     put/delete records; nothing is ever rewritten in place.
//   - The only index is an in-memory hash -> (segment, offset, length) map,
//     rebuilt by replaying the segments on Open. A torn tail record — the
//     signature of a crash mid-append — truncates cleanly instead of
//     failing; a record whose checksum does not match is quarantined
//     (skipped and counted), never served and never a panic.
//   - Durability is batched: with SyncInterval zero every Put is group
//     committed (it returns only after an fsync covers it, but concurrent
//     puts share one fsync); a positive interval trades a bounded window of
//     un-synced acknowledgements for fewer fsyncs; a negative interval
//     disables syncing for tests.
//   - Deletes and quarantined records leave garbage behind; a background
//     compactor rewrites the live records out of the most garbage-heavy
//     sealed segment and deletes the old file.
//
// Keys are expected to be the SHA-256 of the value (the store is content
// addressed, which is what makes Put idempotent and re-replication safe),
// but the package only relies on "same key means same bytes".
package diskstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lepton/internal/metrics"
)

// Hash is a chunk address: the SHA-256 of the chunk's bytes, by convention
// of the callers (the package itself only requires same-key-same-bytes).
type Hash = [32]byte

// Record framing. Every record is
//
//	[4]  CRC32C (Castagnoli) over everything after this field
//	[1]  kind (kindPut | kindDelete)
//	[32] hash
//	[4]  payload length, little endian (0 for deletes)
//	[n]  payload
//
// so a record is self-checking: replay and every read verify the CRC
// before trusting a byte of the payload.
const (
	kindPut    = byte(1)
	kindDelete = byte(2)

	headerSize = 4 + 1 + 32 + 4

	// maxRecordPayload bounds a framed payload; anything larger in a
	// header is corrupt framing, not a big record (the wire protocol caps
	// chunks at 8 MiB).
	maxRecordPayload = 16 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("diskstore: store is closed")

// Options tunes a Store. The zero value is production-shaped: group-commit
// durability, 64-MiB segments, compaction of sealed segments that are at
// least half garbage, checked every 15 seconds.
type Options struct {
	// SyncInterval controls fsync batching. Zero group-commits: a Put
	// returns only after an fsync covers its record, with concurrent puts
	// sharing one fsync. Positive batches harder: fsyncs happen at most
	// this often and puts return immediately, so a crash can lose up to
	// one interval of acknowledged records. Negative disables syncing
	// entirely (tests).
	SyncInterval time.Duration
	// SegmentTargetSize seals the active segment once it reaches this many
	// bytes; 0 means 64 MiB.
	SegmentTargetSize int64
	// CompactFraction is the garbage fraction (garbage/total) at which a
	// sealed segment becomes a compaction candidate; 0 means 0.5.
	CompactFraction float64
	// CompactMinGarbage is the minimum garbage bytes before a segment is
	// worth rewriting; 0 means 1 MiB.
	CompactMinGarbage int64
	// CompactInterval is how often the background compactor looks for a
	// candidate; 0 means 15s, negative disables the loop (Compact may
	// still be called directly).
	CompactInterval time.Duration
	// Logf, when set, receives diagnostics (quarantines, truncations,
	// compactions).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.SegmentTargetSize == 0 {
		o.SegmentTargetSize = 64 << 20
	}
	if o.CompactFraction == 0 {
		o.CompactFraction = 0.5
	}
	if o.CompactMinGarbage == 0 {
		o.CompactMinGarbage = 1 << 20
	}
	if o.CompactInterval == 0 {
		o.CompactInterval = 15 * time.Second
	}
	return o
}

// recordLoc addresses one live record inside a segment.
type recordLoc struct {
	seg uint64
	off int64
	n   int32 // payload length
}

// segment is one on-disk log file. The file handle stays open read-write
// for the active segment and read-only semantics for sealed ones (reads
// use ReadAt, which is safe concurrently).
type segment struct {
	seq     uint64
	path    string
	f       *os.File
	size    int64
	garbage int64 // bytes of records no longer reachable from the index
}

// Store is a disk-backed chunk store. Safe for concurrent use.
type Store struct {
	dir string
	opt Options

	mu     sync.RWMutex // guards index, segs, active, tombs, file writes
	index  map[Hash]recordLoc
	segs   map[uint64]*segment
	order  []uint64 // segment seqs, ascending; last is active
	active *segment
	tombs  map[Hash]struct{} // deleted hashes whose tombstones must survive compaction
	failed error             // a sync/write failure poisons the store
	closed bool

	// Group-commit state: appended counts records written, synced counts
	// records covered by an fsync; puts wait on cond until synced catches
	// up to their record.
	syncMu   sync.Mutex
	syncCond *sync.Cond
	appended uint64
	synced   uint64
	syncErr  error

	stopCh chan struct{}
	bg     sync.WaitGroup

	// stats counts quarantined_records (CRC-mismatched records skipped on
	// replay and reads), truncated_tails (torn tail records truncated on
	// replay), compactions (completed segment rewrites) and syncs (fsync
	// calls issued).
	stats          *metrics.Set
	lastCompaction atomic.Int64 // wall-clock seconds of the last compaction
}

// Open opens (creating if needed) a store rooted at dir and rebuilds the
// index by replaying every segment: later records win, torn tails are
// truncated, CRC-mismatched records are quarantined. Background syncing
// and compaction start according to opts.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	s := &Store{
		dir:    dir,
		opt:    opts,
		index:  make(map[Hash]recordLoc),
		segs:   make(map[uint64]*segment),
		tombs:  make(map[Hash]struct{}),
		stopCh: make(chan struct{}),
		stats:  metrics.New(nil, "quarantined_records", "truncated_tails", "compactions", "syncs"),
	}
	s.syncCond = sync.NewCond(&s.syncMu)

	seqs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	for _, seq := range seqs {
		if err := s.replaySegment(seq); err != nil {
			s.closeFiles()
			return nil, err
		}
	}
	if len(s.order) == 0 {
		if err := s.addSegment(1); err != nil {
			return nil, err
		}
	}
	s.active = s.segs[s.order[len(s.order)-1]]

	if opts.SyncInterval >= 0 {
		s.bg.Add(1)
		go s.syncLoop()
	}
	if opts.CompactInterval > 0 {
		s.bg.Add(1)
		go s.compactLoop()
	}
	return s, nil
}

func (s *Store) logf(format string, args ...any) {
	if s.opt.Logf != nil {
		s.opt.Logf(format, args...)
	}
}

// listSegments returns the segment sequence numbers present in dir,
// ascending.
func listSegments(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	var seqs []uint64
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".log") {
			continue
		}
		seq, err := strconv.ParseUint(name[len("seg-"):len(name)-len(".log")], 10, 64)
		if err != nil || seq == 0 {
			continue // not ours
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

func segPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%08d.log", seq))
}

// addSegment creates and registers an empty segment file, fsyncing the
// directory so the new name itself survives a crash.
func (s *Store) addSegment(seq uint64) error {
	f, err := os.OpenFile(segPath(s.dir, seq), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		f.Close()
		return err
	}
	seg := &segment{seq: seq, path: segPath(s.dir, seq), f: f}
	s.segs[seq] = seg
	s.order = append(s.order, seq)
	return nil
}

// syncDir fsyncs a directory so entry creations/removals are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("diskstore: sync %s: %w", dir, err)
	}
	return nil
}

// --- replay ----------------------------------------------------------------

// replaySegment opens one segment file and walks its records into the
// index. Framing damage at the tail (short header, payload past EOF, or an
// impossible length) is a torn write: the file is truncated at the last
// good record and replay of this segment stops. A full record whose CRC
// does not match is a quarantined bit flip: skipped, counted, and the
// bytes left as garbage for compaction.
func (s *Store) replaySegment(seq uint64) error {
	path := segPath(s.dir, seq)
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("diskstore: %w", err)
	}
	size := st.Size()
	seg := &segment{seq: seq, path: path, f: f}

	var (
		off    int64
		hdr    [headerSize]byte
		truncs int
	)
	for off < size {
		if size-off < headerSize {
			truncs++
			break // torn header
		}
		if _, err := f.ReadAt(hdr[:], off); err != nil {
			f.Close()
			return fmt.Errorf("diskstore: replay %s: %w", path, err)
		}
		kind := hdr[4]
		n := int64(binary.LittleEndian.Uint32(hdr[37:]))
		if (kind != kindPut && kind != kindDelete) || n > maxRecordPayload {
			// Corrupt framing: the length cannot be trusted, so nothing
			// after this offset can be either. Treat as a torn tail.
			truncs++
			break
		}
		recLen := headerSize + n
		if off+recLen > size {
			truncs++
			break // torn payload
		}
		rec := make([]byte, recLen)
		if _, err := f.ReadAt(rec, off); err != nil {
			f.Close()
			return fmt.Errorf("diskstore: replay %s: %w", path, err)
		}
		if crc32.Checksum(rec[4:], castagnoli) != binary.LittleEndian.Uint32(rec[:4]) {
			// A bit flip inside a well-framed record: quarantine it. The
			// chunk (if any) reads as missing and heals from replicas.
			s.stats.Add("quarantined_records", 1)
			s.logf("diskstore: quarantined record at %s+%d (%d bytes, crc mismatch)", path, off, recLen)
			seg.garbage += recLen
			off += recLen
			continue
		}
		var h Hash
		copy(h[:], rec[5:37])
		switch kind {
		case kindPut:
			if old, ok := s.index[h]; ok {
				s.addGarbage(old)
			}
			delete(s.tombs, h)
			s.index[h] = recordLoc{seg: seq, off: off, n: int32(n)}
		case kindDelete:
			if old, ok := s.index[h]; ok {
				s.addGarbage(old)
				delete(s.index, h)
			}
			s.tombs[h] = struct{}{}
		}
		off += recLen
	}
	if off < size {
		if err := f.Truncate(off); err != nil {
			f.Close()
			return fmt.Errorf("diskstore: truncate torn tail of %s: %w", path, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("diskstore: %w", err)
		}
		s.stats.Add("truncated_tails", int64(truncs))
		s.logf("diskstore: truncated torn tail of %s at %d (was %d)", path, off, size)
	}
	seg.size = off
	s.segs[seq] = seg
	s.order = append(s.order, seq)
	return nil
}

// addGarbage marks a superseded record's bytes reclaimable. Called with
// s.mu held (or during single-threaded replay).
func (s *Store) addGarbage(loc recordLoc) {
	if seg, ok := s.segs[loc.seg]; ok {
		seg.garbage += headerSize + int64(loc.n)
	}
}

// --- writes ----------------------------------------------------------------

func encodeRecord(kind byte, h Hash, payload []byte) []byte {
	rec := make([]byte, headerSize+len(payload))
	rec[4] = kind
	copy(rec[5:37], h[:])
	binary.LittleEndian.PutUint32(rec[37:], uint32(len(payload)))
	copy(rec[headerSize:], payload)
	binary.LittleEndian.PutUint32(rec[:4], crc32.Checksum(rec[4:], castagnoli))
	return rec
}

// appendLocked writes one record to the active segment, rotating first if
// the active segment is full. Returns the record's location and its
// group-commit sequence. Caller holds s.mu.
func (s *Store) appendLocked(rec []byte) (recordLoc, uint64, error) {
	if s.failed != nil {
		return recordLoc{}, 0, s.failed
	}
	if s.active.size >= s.opt.SegmentTargetSize {
		if err := s.rotateLocked(); err != nil {
			return recordLoc{}, 0, err
		}
	}
	seg := s.active
	off := seg.size
	if _, err := seg.f.WriteAt(rec, off); err != nil {
		s.failed = fmt.Errorf("diskstore: append: %w", err)
		return recordLoc{}, 0, s.failed
	}
	seg.size += int64(len(rec))
	s.syncMu.Lock()
	s.appended++
	seq := s.appended
	s.syncCond.Broadcast() // wake the syncer: there is work
	s.syncMu.Unlock()
	return recordLoc{seg: seg.seq, off: off, n: int32(len(rec) - headerSize)}, seq, nil
}

// rotateLocked seals the active segment (fsyncing it so nothing in a
// sealed segment is ever un-synced) and opens the next one.
func (s *Store) rotateLocked() error {
	if err := s.active.f.Sync(); err != nil {
		s.failed = fmt.Errorf("diskstore: seal %s: %w", s.active.path, err)
		return s.failed
	}
	s.stats.Add("syncs", 1)
	if err := s.addSegment(s.active.seq + 1); err != nil {
		s.failed = err
		return err
	}
	s.active = s.segs[s.order[len(s.order)-1]]
	return nil
}

// Put stores data under h. Content addressing makes it idempotent: a hash
// already present is a no-op (same key, same bytes), which is what makes
// re-replication and read-repair writes safe to repeat. With SyncInterval
// zero, Put returns only once an fsync covers the record — the chunk is
// acknowledged durable.
func (s *Store) Put(h Hash, data []byte) error {
	if int64(len(data)) > maxRecordPayload {
		return fmt.Errorf("diskstore: %d-byte chunk exceeds the %d-byte record limit", len(data), maxRecordPayload)
	}
	rec := encodeRecord(kindPut, h, data)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if _, ok := s.index[h]; ok {
		s.mu.Unlock()
		return nil
	}
	loc, seq, err := s.appendLocked(rec)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	s.index[h] = loc
	delete(s.tombs, h)
	s.mu.Unlock()
	return s.waitDurable(seq)
}

// Delete removes h, appending a tombstone so the deletion survives replay.
// Deleting an absent hash is a no-op.
func (s *Store) Delete(h Hash) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	old, ok := s.index[h]
	if !ok {
		s.mu.Unlock()
		return nil
	}
	rec := encodeRecord(kindDelete, h, nil)
	_, seq, err := s.appendLocked(rec)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	delete(s.index, h)
	s.tombs[h] = struct{}{}
	s.addGarbage(old)
	s.mu.Unlock()
	return s.waitDurable(seq)
}

// waitDurable blocks (group-commit mode only) until an fsync covers record
// seq.
func (s *Store) waitDurable(seq uint64) error {
	if s.opt.SyncInterval != 0 {
		return nil // periodic or disabled: acknowledged before the fsync
	}
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	for s.synced < seq && s.syncErr == nil {
		s.syncCond.Wait()
	}
	return s.syncErr
}

// --- reads -----------------------------------------------------------------

// Get returns the chunk stored under h. Every read re-verifies the
// record's CRC before returning a byte: a record rotted on disk reads as
// missing (ok=false, quarantined and dropped from the index so a repair
// write can re-admit it) rather than serving corrupt bytes. The error
// return is reserved for I/O failures.
func (s *Store) Get(h Hash) ([]byte, bool, error) {
	s.mu.RLock()
	loc, ok := s.index[h]
	if !ok {
		s.mu.RUnlock()
		return nil, false, nil
	}
	seg := s.segs[loc.seg]
	rec := make([]byte, headerSize+int64(loc.n))
	_, err := seg.f.ReadAt(rec, loc.off)
	s.mu.RUnlock()
	if err != nil {
		return nil, false, fmt.Errorf("diskstore: read %s+%d: %w", seg.path, loc.off, err)
	}
	if crc32.Checksum(rec[4:], castagnoli) != binary.LittleEndian.Uint32(rec[:4]) {
		s.quarantineRead(h, loc)
		return nil, false, nil
	}
	return rec[headerSize:], true, nil
}

// quarantineRead drops a record that failed its read-time CRC check, so
// the hash reads as missing and replication can heal it.
func (s *Store) quarantineRead(h Hash, loc recordLoc) {
	s.mu.Lock()
	if cur, ok := s.index[h]; ok && cur == loc {
		delete(s.index, h)
		s.addGarbage(loc)
		s.stats.Add("quarantined_records", 1)
		s.logf("diskstore: quarantined chunk %x on read (crc mismatch)", h[:8])
	}
	s.mu.Unlock()
}

// Has reports whether h is present (without verifying the record bytes).
func (s *Store) Has(h Hash) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.index[h]
	return ok
}

// Len returns the number of live chunks.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// HashesAfter returns up to max hashes strictly greater than after, in
// ascending byte order — the ranged scan behind OpListChunks: page with a
// zero Hash first, then the last hash of each page. max <= 0 means all.
func (s *Store) HashesAfter(after Hash, max int) []Hash {
	s.mu.RLock()
	out := make([]Hash, 0, len(s.index))
	for h := range s.index {
		if greaterThan(h, after) {
			out = append(out, h)
		}
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return lessThan(out[i], out[j]) })
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

func lessThan(a, b Hash) bool    { return string(a[:]) < string(b[:]) }
func greaterThan(a, b Hash) bool { return string(a[:]) > string(b[:]) }

// --- syncing ---------------------------------------------------------------

// syncLoop is the single fsync issuer: it wakes when records are appended
// (group-commit mode) or on the configured interval, fsyncs the active
// segment, and publishes how far durability reaches. Sealed segments were
// fsynced at rotation, so syncing the active file always covers every
// appended-but-unsynced record.
func (s *Store) syncLoop() {
	defer s.bg.Done()
	interval := s.opt.SyncInterval
	// One reused timer serves every periodic wait: the old per-iteration
	// time.After allocated a fresh runtime timer each tick, so a long-lived
	// periodic-sync store generated garbage forever just by idling. Reset
	// is safe without draining since Go 1.23 (unbuffered timer channels),
	// and only this goroutine ever receives from tick.C.
	var tick *time.Timer
	if interval > 0 {
		tick = time.NewTimer(interval)
		defer tick.Stop()
	}
	// sleep waits one interval on the reused timer; false means stopCh
	// fired first.
	sleep := func() bool {
		tick.Reset(interval)
		select {
		case <-s.stopCh:
			return false
		case <-tick.C:
			return true
		}
	}
	for {
		s.syncMu.Lock()
		for s.appended == s.synced {
			select {
			case <-s.stopCh:
				s.syncMu.Unlock()
				return
			default:
			}
			if interval > 0 {
				// Periodic mode: poll on the interval; cond waits would
				// need a waker per append, which group commit already has.
				s.syncMu.Unlock()
				if !sleep() {
					return
				}
				s.syncMu.Lock()
				continue
			}
			s.syncCond.Wait()
		}
		target := s.appended
		s.syncMu.Unlock()

		if interval > 0 {
			// On stop, fall through and sync now: Close's final sync path
			// relies on it.
			_ = sleep()
		}
		err := s.syncActive()

		s.syncMu.Lock()
		s.synced = target
		if err != nil && s.syncErr == nil {
			s.syncErr = err
		}
		s.syncCond.Broadcast()
		s.syncMu.Unlock()
		if err != nil {
			s.mu.Lock()
			if s.failed == nil {
				s.failed = err
			}
			s.mu.Unlock()
			return
		}
	}
}

// syncActive fsyncs the current active segment. Records counted in
// `appended` before the call are fully written (WriteAt completes before
// the counter bumps), so they are covered.
func (s *Store) syncActive() error {
	s.mu.RLock()
	f := s.active.f
	s.mu.RUnlock()
	if err := f.Sync(); err != nil {
		return fmt.Errorf("diskstore: fsync: %w", err)
	}
	s.stats.Add("syncs", 1)
	return nil
}

// Sync forces an fsync of the active segment (flushing the periodic
// mode's window) and returns once everything appended so far is durable.
func (s *Store) Sync() error {
	s.syncMu.Lock()
	target := s.appended
	s.syncMu.Unlock()
	if err := s.syncActive(); err != nil {
		return err
	}
	s.syncMu.Lock()
	if target > s.synced {
		s.synced = target
	}
	s.syncCond.Broadcast()
	s.syncMu.Unlock()
	return nil
}

// --- compaction ------------------------------------------------------------

func (s *Store) compactLoop() {
	defer s.bg.Done()
	t := time.NewTicker(s.opt.CompactInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case <-t.C:
			if _, err := s.Compact(); err != nil && !errors.Is(err, ErrClosed) {
				s.logf("diskstore: compaction: %v", err)
			}
		}
	}
}

// Compact rewrites the live records of the most garbage-heavy sealed
// segment into the active log and deletes the old file; it reports whether
// a segment was rewritten. Candidates need at least CompactMinGarbage
// garbage bytes making up at least CompactFraction of the segment.
// Tombstones whose deletions must still shadow older segments are
// re-appended so a replay after compaction cannot resurrect deleted
// chunks.
func (s *Store) Compact() (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, ErrClosed
	}
	if s.failed != nil {
		return false, s.failed
	}

	var victim *segment
	for _, seq := range s.order {
		seg := s.segs[seq]
		if seg == s.active || seg.size == 0 {
			continue
		}
		if seg.garbage < s.opt.CompactMinGarbage {
			continue
		}
		if float64(seg.garbage) < s.opt.CompactFraction*float64(seg.size) {
			continue
		}
		if victim == nil || seg.garbage > victim.garbage {
			victim = seg
		}
	}
	if victim == nil {
		return false, nil
	}

	// Walk the victim's records; copy the ones the index still points at.
	var (
		off   int64
		hdr   [headerSize]byte
		moved int
	)
	for off < victim.size {
		if _, err := victim.f.ReadAt(hdr[:], off); err != nil {
			return false, fmt.Errorf("diskstore: compact %s: %w", victim.path, err)
		}
		n := int64(binary.LittleEndian.Uint32(hdr[37:]))
		recLen := headerSize + n
		var h Hash
		copy(h[:], hdr[5:37])
		if loc, ok := s.index[h]; ok && loc.seg == victim.seq && loc.off == off {
			rec := make([]byte, recLen)
			if _, err := victim.f.ReadAt(rec, off); err != nil {
				return false, fmt.Errorf("diskstore: compact %s: %w", victim.path, err)
			}
			if crc32.Checksum(rec[4:], castagnoli) != binary.LittleEndian.Uint32(rec[:4]) {
				// Rotted since replay: quarantine rather than copying
				// corruption forward.
				s.stats.Add("quarantined_records", 1)
				delete(s.index, h)
			} else {
				newLoc, _, err := s.appendLocked(rec)
				if err != nil {
					return false, err
				}
				s.index[h] = newLoc
				moved++
			}
		}
		off += recLen
	}
	// Tombstones still shadowing older segments must survive: re-append
	// them all (bounded by the store's delete count; deletes are rare in a
	// content-addressed store).
	for h := range s.tombs {
		if _, _, err := s.appendLocked(encodeRecord(kindDelete, h, nil)); err != nil {
			return false, err
		}
	}
	// Make the copies durable before the originals disappear.
	if err := s.active.f.Sync(); err != nil {
		s.failed = fmt.Errorf("diskstore: compact sync: %w", err)
		return false, s.failed
	}
	s.stats.Add("syncs", 1)

	victim.f.Close()
	if err := os.Remove(victim.path); err != nil {
		return false, fmt.Errorf("diskstore: compact remove: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return false, err
	}
	delete(s.segs, victim.seq)
	for i, seq := range s.order {
		if seq == victim.seq {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.stats.Add("compactions", 1)
	s.lastCompaction.Store(time.Now().Unix())
	s.logf("diskstore: compacted %s (%d live records moved, %d garbage bytes reclaimed)",
		victim.path, moved, victim.garbage)
	return true, nil
}

// --- stats and lifecycle ---------------------------------------------------

// BackendStats returns the store's durability counters plus its current
// shape — live chunks, segment files, live bytes (record headers
// included), bytes reclaimable by compaction, and the wall-clock second
// of the last compaction — as a flat map for expvar/JSON export; the
// blockserver merges it into StatsSnapshot under store_* keys.
func (s *Store) BackendStats() map[string]int64 {
	snap := s.stats.Snapshot()
	s.mu.RLock()
	snap["chunks"] = int64(len(s.index))
	snap["segments"] = int64(len(s.order))
	var live, garbage int64
	for _, seg := range s.segs {
		live += seg.size - seg.garbage
		garbage += seg.garbage
	}
	s.mu.RUnlock()
	snap["live_bytes"] = live
	snap["garbage_bytes"] = garbage
	snap["last_compaction_unix"] = s.lastCompaction.Load()
	return snap
}

func (s *Store) closeFiles() {
	for _, seg := range s.segs {
		_ = seg.f.Close()
	}
}

// Close stops the background loops, fsyncs the active segment, and closes
// every file. Further operations return ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()

	close(s.stopCh)
	s.syncMu.Lock()
	s.syncCond.Broadcast()
	s.syncMu.Unlock()
	s.bg.Wait()

	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	if s.failed == nil && s.opt.SyncInterval >= 0 {
		if serr := s.active.f.Sync(); serr != nil {
			err = fmt.Errorf("diskstore: close sync: %w", serr)
		} else {
			s.stats.Add("syncs", 1)
		}
	}
	s.closeFiles()
	return err
}
