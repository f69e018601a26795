// Package store implements the content-addressed chunk store with the
// safety mechanisms of paper §5.7: round-trip admission control (no chunk
// is stored unless it decodes back to its exact input), a checksum over the
// compressed bytes compared before and after storage, a deflate fallback
// for inputs Lepton cannot hold, an optional "safety net" secondary store,
// and a shutoff switch checked before every encode.
package store

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"lepton/internal/chunk"
	"lepton/internal/core"
	"lepton/internal/metrics"
)

// Hash is a chunk address.
type Hash = [sha256.Size]byte

// FileRef addresses a stored file as an ordered list of chunk hashes.
type FileRef struct {
	Chunks []Hash
	Size   int64
}

// Counters is a snapshot of a Store's operational statistics.
type Counters struct {
	Encodes           int64
	Decodes           int64
	LeptonChunks      int64
	DeflateChunks     int64
	RoundtripFailures int64
	BytesIn           int64
	BytesStored       int64
	ShutoffSkips      int64
}

// SafetyNet is a secondary store that receives every uploaded chunk in
// uncompressed form during ramp-up (§5.7); production deleted it after the
// S3 overload incident of §6.5.
type SafetyNet interface {
	Put(h Hash, raw []byte) error
	Get(h Hash) ([]byte, bool)
}

// MemSafetyNet is an in-memory SafetyNet.
type MemSafetyNet struct {
	mu sync.RWMutex
	m  map[Hash][]byte
	// FailPuts makes every Put fail, reproducing the §6.5 incident where
	// the safety net itself became the availability bottleneck.
	FailPuts atomic.Bool
}

// NewMemSafetyNet returns an empty safety net.
func NewMemSafetyNet() *MemSafetyNet { return &MemSafetyNet{m: map[Hash][]byte{}} }

// Put stores a raw chunk.
func (s *MemSafetyNet) Put(h Hash, raw []byte) error {
	if s.FailPuts.Load() {
		return errors.New("safety net: put failed (overloaded)")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[h] = append([]byte(nil), raw...)
	return nil
}

// Get fetches a raw chunk.
func (s *MemSafetyNet) Get(h Hash) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.m[h]
	return v, ok
}

// Backend is the blob layer under a Store: where compressed chunks live
// once admitted. The default is the in-memory MemBackend; a blockserver
// that must survive restarts plugs in internal/diskstore (which implements
// this interface) instead. Implementations must be safe for concurrent
// use and idempotent on Put — keys are content hashes, so re-putting a
// present hash stores the same bytes.
type Backend interface {
	// Put stores data under h.
	Put(h Hash, data []byte) error
	// Get returns the stored bytes. A chunk that is absent — or that the
	// backend refuses to serve, e.g. because it failed an integrity check
	// — reads as ok=false; the error return is for I/O failures.
	Get(h Hash) ([]byte, bool, error)
	// Delete removes h; deleting an absent hash is a no-op.
	Delete(h Hash) error
	// Len returns the number of stored chunks.
	Len() int
	// HashesAfter returns up to max stored hashes strictly greater than
	// after in ascending byte order (max <= 0 means all) — the ranged
	// scan behind OpListChunks and anti-entropy.
	HashesAfter(after Hash, max int) []Hash
}

// StatsBackend is implemented by backends with durability counters worth
// exporting (segment counts, garbage bytes, quarantines, ...).
type StatsBackend interface {
	Backend
	BackendStats() map[string]int64
}

// MemBackend is the default in-memory Backend.
type MemBackend struct {
	mu    sync.RWMutex
	blobs map[Hash][]byte
}

// NewMemBackend returns an empty in-memory backend.
func NewMemBackend() *MemBackend { return &MemBackend{blobs: map[Hash][]byte{}} }

// Put stores a copy of data under h.
func (m *MemBackend) Put(h Hash, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.blobs[h]; !ok {
		m.blobs[h] = append([]byte(nil), data...)
	}
	return nil
}

// Get returns the stored bytes for h.
func (m *MemBackend) Get(h Hash) ([]byte, bool, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	b, ok := m.blobs[h]
	return b, ok, nil
}

// Delete removes h.
func (m *MemBackend) Delete(h Hash) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.blobs, h)
	return nil
}

// Len returns the number of stored chunks.
func (m *MemBackend) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.blobs)
}

// HashesAfter returns up to max hashes strictly greater than after,
// ascending.
func (m *MemBackend) HashesAfter(after Hash, max int) []Hash {
	m.mu.RLock()
	out := make([]Hash, 0, len(m.blobs))
	for h := range m.blobs {
		if bytes.Compare(h[:], after[:]) > 0 {
			out = append(out, h)
		}
	}
	m.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i][:], out[j][:]) < 0 })
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

// Store is a blockserver chunk store: admission control and codec policy
// in front of a pluggable blob Backend.
type Store struct {
	backend Backend

	stats *metrics.Set // read through Counters

	// ShutoffPath is checked before each Lepton encode; if the file exists
	// the encoder is bypassed and deflate used instead. Production used a
	// file in /dev/shm so a kill switch propagated in seconds rather than
	// the 15-45 minutes of a config deploy (§5.7, §6.5).
	ShutoffPath string

	// Net, when non-nil, receives every chunk's raw bytes on upload.
	Net SafetyNet

	// ChunkSize for splitting files; 0 means the 4-MiB default.
	ChunkSize int

	// Codec supplies pooled conversion state shared across puts and gets.
	// New and NewWithBackend set a fresh one; a caller may share its own.
	Codec *core.Codec

	// verify is the admission round-trip check; nil means Codec.VerifyCtx.
	// Tests replace it to count or fail verifications.
	verify func(ctx context.Context, comp, want []byte) error
}

// New returns an empty store over the in-memory backend.
func New() *Store { return NewWithBackend(NewMemBackend()) }

// NewWithBackend returns a store over b — pass a *diskstore.Store for a
// store that survives restarts.
func NewWithBackend(b Backend) *Store {
	return &Store{backend: b, Codec: core.NewCodec(), stats: metrics.New(nil)}
}

// Backend returns the store's blob backend.
func (st *Store) Backend() Backend { return st.backend }

// Len returns the number of stored chunks.
func (st *Store) Len() int { return st.backend.Len() }

// HashesAfter returns up to max stored chunk hashes strictly greater than
// after in ascending order — the scan OpListChunks serves so a restarted
// node can re-announce what its disk still holds.
func (st *Store) HashesAfter(after Hash, max int) []Hash {
	return st.backend.HashesAfter(after, max)
}

// BackendStats returns the backend's durability counters, or nil for
// backends without any (the in-memory default).
func (st *Store) BackendStats() map[string]int64 {
	if sb, ok := st.backend.(StatsBackend); ok {
		return sb.BackendStats()
	}
	return nil
}

// Close releases the backend if it holds resources (a disk-backed store's
// segment files and background loops); the in-memory backend is a no-op.
func (st *Store) Close() error {
	if c, ok := st.backend.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}

func (st *Store) shutoff() bool {
	if st.ShutoffPath == "" {
		return false
	}
	_, err := os.Stat(st.ShutoffPath)
	return err == nil
}

// PutFileCtx chunks, compresses, verifies, and admits a file. The admission
// loop is the one round-trip check: each chunk is checksummed, then
// decoded and compared byte for byte with its input — once, before
// anything is stored; the compressor is not asked to verify as well. If a
// chunk of the Lepton path fails, the whole file is stored as raw
// (deflate) chunks instead and RoundtripFailures counts it — the upload
// never fails for codec reasons (§5.7).
//
// Cancellation aborts the upload between chunks and inside each chunk's
// encode or verify, and comes back as ctx.Err() rather than falling
// through to the deflate path the way codec rejections do. No FileRef is
// returned, but chunks admitted before the cancellation remain stored —
// the store is content-addressed, so a retried upload re-admits them under
// the same hashes.
func (st *Store) PutFileCtx(ctx context.Context, data []byte) (FileRef, error) {
	size := st.ChunkSize
	if size <= 0 {
		size = chunk.DefaultChunkSize
	}
	var comp [][]byte
	if st.shutoff() {
		st.stats.Add("shutoff_skips", 1)
	} else {
		var err error
		comp, err = chunk.CompressCtx(ctx, data, chunk.Options{ChunkSize: size, Codec: st.Codec})
		if err != nil && ctx.Err() != nil {
			return FileRef{}, ctx.Err()
		}
	}
	st.stats.Add("encodes", 1)
	st.stats.Add("bytes_in", int64(len(data)))

	var sums []Hash
	if comp != nil {
		var err error
		if sums, err = st.verifyChunks(ctx, data, size, comp); err != nil {
			if ctx.Err() != nil {
				return FileRef{}, ctx.Err()
			}
			st.stats.Add("roundtrip_failures", 1)
			comp = nil // fall through to deflate
		}
	}
	if comp == nil {
		comp = chunk.RawChunks(data, size, st.Codec)
		var err error
		if sums, err = st.verifyChunks(ctx, data, size, comp); err != nil {
			if ctx.Err() != nil {
				return FileRef{}, ctx.Err()
			}
			return FileRef{}, err
		}
	}

	for k, cb := range comp {
		if err := ctx.Err(); err != nil {
			return FileRef{}, err
		}
		sum := sums[k]
		if err := st.backend.Put(sum, cb); err != nil {
			return FileRef{}, fmt.Errorf("store: chunk %d: %w", k, err)
		}
		stored, ok, err := st.backend.Get(sum)
		if err != nil || !ok {
			return FileRef{}, fmt.Errorf("store: chunk %d unreadable after store (ok=%v): %v", k, ok, err)
		}
		if got := sha256.Sum256(stored); got != sum {
			return FileRef{}, fmt.Errorf("store: chunk %d checksum changed after store", k)
		}
		if core.IsLepton(cb) && !isRawMode(cb) {
			st.stats.Add("lepton_chunks", 1)
		} else {
			st.stats.Add("deflate_chunks", 1)
		}
		st.stats.Add("bytes_stored", int64(len(cb)))
		if st.Net != nil {
			o0, o1 := chunkSpan(k, size, len(data))
			if err := st.Net.Put(sum, data[o0:o1]); err != nil {
				// §6.5: a failing safety net degrades uploads; surface it.
				return FileRef{}, fmt.Errorf("store: safety net: %w", err)
			}
		}
	}
	return FileRef{Chunks: sums, Size: int64(len(data))}, nil
}

// verifyChunks is admission control for one file's chunks: it takes each
// chunk's checksum — compared with the stored copy after the write, to
// catch in-memory corruption (§5.7's md5sum) — and then requires the chunk
// to decode to exactly its input slice. It stores nothing, so a failure
// leaves the file free to take the deflate path.
func (st *Store) verifyChunks(ctx context.Context, data []byte, size int, comp [][]byte) ([]Hash, error) {
	verify := st.verify
	if verify == nil {
		verify = func(ctx context.Context, comp, want []byte) error {
			return st.Codec.VerifyCtx(ctx, comp, want)
		}
	}
	sums := make([]Hash, len(comp))
	for k, cb := range comp {
		sums[k] = sha256.Sum256(cb)
		o0, o1 := chunkSpan(k, size, len(data))
		if err := verify(ctx, cb, data[o0:o1]); err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, fmt.Errorf("store: chunk %d failed admission round trip: %w", k, err)
		}
	}
	return sums, nil
}

// chunkSpan returns chunk k's byte range in an n-byte file.
func chunkSpan(k, size, n int) (o0, o1 int) {
	o0 = k * size
	return o0, min(o0+size, n)
}

func isRawMode(cb []byte) bool {
	return len(cb) >= 4 && cb[3] == core.ModeRaw
}

// PutCompressedChunkCtx admits an already-compressed chunk, as uploaded by a
// client running the codec locally (the paper's §7 future work: moving
// compression to clients saves the 23% in network bandwidth too). The chunk
// must prove decodable before admission; the caller is expected to have
// verified the plaintext round trip on its side. The replica holds no
// plaintext to compare with, so the proof is a full decode into
// io.Discard, which aborts on cancellation.
func (st *Store) PutCompressedChunkCtx(ctx context.Context, cb []byte) (Hash, error) {
	if !core.IsLepton(cb) {
		return Hash{}, errors.New("store: not a Lepton container")
	}
	if err := st.Codec.DecodeToCtx(ctx, io.Discard, cb); err != nil {
		if ctx.Err() != nil {
			return Hash{}, ctx.Err()
		}
		return Hash{}, fmt.Errorf("store: chunk not decodable: %w", err)
	}
	sum := sha256.Sum256(cb)
	if err := st.backend.Put(sum, cb); err != nil {
		return Hash{}, fmt.Errorf("store: %w", err)
	}
	st.stats.Add("lepton_chunks", 1)
	st.stats.Add("bytes_stored", int64(len(cb)))
	return sum, nil
}

// toDecode returns chunk h's stored bytes for a decode, and counts it.
func (st *Store) toDecode(h Hash) ([]byte, error) {
	cb, ok, err := st.backend.Get(h)
	if err != nil {
		return nil, fmt.Errorf("store: chunk %x: %w", h[:8], err)
	}
	if !ok {
		return nil, fmt.Errorf("store: unknown chunk %x", h[:8])
	}
	st.stats.Add("decodes", 1)
	return cb, nil
}

// GetChunkCtx decompresses one stored chunk; the decode aborts mid-segment
// on cancellation.
func (st *Store) GetChunkCtx(ctx context.Context, h Hash) ([]byte, error) {
	cb, err := st.toDecode(h)
	if err != nil {
		return nil, err
	}
	return st.Codec.DecodeCtx(ctx, cb)
}

// GetCompressedChunk returns the stored (compressed) bytes. A backend
// read failure reads as a miss: the fleet layer treats a miss as a
// repairable hole, which is exactly what an unreadable replica is.
func (st *Store) GetCompressedChunk(h Hash) ([]byte, bool) {
	cb, ok, err := st.backend.Get(h)
	if err != nil {
		return nil, false
	}
	return cb, ok
}

// GetFileCtx reassembles a file from its reference, checking the context
// chunk by chunk. Each chunk decodes straight onto the end of the file's
// buffer, sized once from ref.Size.
func (st *Store) GetFileCtx(ctx context.Context, ref FileRef) ([]byte, error) {
	out := bytes.NewBuffer(make([]byte, 0, ref.Size))
	for _, h := range ref.Chunks {
		cb, err := st.toDecode(h)
		if err != nil {
			return nil, err
		}
		if err := st.Codec.DecodeToCtx(ctx, out, cb); err != nil {
			return nil, err
		}
	}
	if int64(out.Len()) != ref.Size {
		return nil, fmt.Errorf("store: reassembled %d bytes, want %d", out.Len(), ref.Size)
	}
	return out.Bytes(), nil
}

// GetChunkRangeCtx decodes only bytes [off, off+n) of one stored chunk's
// reconstruction, clamped at the chunk's size — for an indexed container,
// only the arithmetic segments the range touches.
func (st *Store) GetChunkRangeCtx(ctx context.Context, h Hash, off, n int64) ([]byte, error) {
	cb, err := st.toDecode(h)
	if err != nil {
		return nil, err
	}
	return st.Codec.DecodeRangeCtx(ctx, cb, off, n)
}

// GetFileRangeCtx reads bytes [off, off+n) of a stored file, clamped at
// its size, decoding only the chunks (and within each chunk only the
// segments) the range overlaps. The store's ChunkSize must match the one
// the file was stored under; see Remote.GetFileRange.
func (st *Store) GetFileRangeCtx(ctx context.Context, ref FileRef, off, n int64) ([]byte, error) {
	size := int64(st.ChunkSize)
	if size <= 0 {
		size = chunk.DefaultChunkSize
	}
	return getFileRange(ctx, ref, off, n, size, st.GetChunkRangeCtx)
}

// RecoverFromSafetyNet restores a chunk's raw bytes from the safety net —
// the disaster-recovery path the team drilled but never needed (§5.7).
func (st *Store) RecoverFromSafetyNet(h Hash) ([]byte, error) {
	if st.Net == nil {
		return nil, errors.New("store: no safety net configured")
	}
	raw, ok := st.Net.Get(h)
	if !ok {
		return nil, errors.New("store: chunk not in safety net")
	}
	return raw, nil
}

// Counters returns a snapshot of operational statistics, read from the
// store's counter set.
func (st *Store) Counters() Counters {
	c := st.stats.Snapshot()
	return Counters{
		Encodes:           c["encodes"],
		Decodes:           c["decodes"],
		LeptonChunks:      c["lepton_chunks"],
		DeflateChunks:     c["deflate_chunks"],
		RoundtripFailures: c["roundtrip_failures"],
		BytesIn:           c["bytes_in"],
		BytesStored:       c["bytes_stored"],
		ShutoffSkips:      c["shutoff_skips"],
	}
}
