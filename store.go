package lepton

import (
	"context"
	"time"

	"lepton/internal/diskstore"
	"lepton/internal/store"
)

// ChunkHash is a content address: the SHA-256 of a stored chunk's
// compressed bytes.
type ChunkHash = store.Hash

// FileRef addresses a stored file as an ordered list of chunk hashes plus
// its exact original size.
type FileRef = store.FileRef

// StoreCounters is a snapshot of a Store's operational statistics.
type StoreCounters = store.Counters

// SafetyNet is a secondary store that receives every uploaded chunk in
// uncompressed form during ramp-up (§5.7); production deleted it after the
// S3 overload incident of §6.5.
type SafetyNet = store.SafetyNet

// MemSafetyNet is an in-memory SafetyNet; its FailPuts switch reproduces
// the §6.5 incident where the safety net became the availability
// bottleneck.
type MemSafetyNet = store.MemSafetyNet

// NewMemSafetyNet returns an empty in-memory safety net.
func NewMemSafetyNet() *MemSafetyNet { return store.NewMemSafetyNet() }

// StoreOptions configures a Store. The zero value (or nil) is a plain
// in-memory store with 4-MiB chunks, no safety net, no shutoff file, and
// pooled codec state shared with the package-level conversion functions.
type StoreOptions struct {
	// ChunkSize for splitting files; 0 means ChunkSize (4 MiB).
	ChunkSize int
	// ShutoffPath is checked before each Lepton encode; if the file exists
	// the encoder is bypassed and deflate used instead. Production used a
	// file in /dev/shm so a kill switch propagated in seconds rather than
	// the 15-45 minutes of a config deploy (§5.7, §6.5).
	ShutoffPath string
	// SafetyNet, when non-nil, receives every uploaded chunk's raw bytes.
	SafetyNet SafetyNet
	// Codec supplies the pooled conversion pipeline; nil shares the
	// package's default codec.
	Codec *Codec
	// SyncInterval tunes a disk-backed store's fsync batching (ignored by
	// NewStore): 0 group-commits every put before acknowledging it,
	// positive trades a bounded window of unsynced acknowledgements for
	// fewer fsyncs, negative disables syncing (tests).
	SyncInterval time.Duration
}

// Store is the content-addressed chunk store with the safety mechanisms of
// paper §5.7: round-trip admission control (no chunk is stored unless it
// decodes back to its exact input), a checksum over the compressed bytes
// compared before and after storage, a deflate fallback for inputs Lepton
// cannot hold, an optional safety-net secondary store, and a shutoff switch
// checked before every encode.
//
// Every operation takes a context: cancellation aborts the underlying
// conversions mid-segment and surfaces as ctx.Err(). A Store is safe for
// concurrent use.
type Store struct {
	s *store.Store
}

// NewStore returns an empty in-memory store. opts may be nil.
func NewStore(opts *StoreOptions) *Store {
	return configureStore(store.New(), opts)
}

// NewDiskStore returns a store whose chunks live in a log-structured
// on-disk store rooted at dir and survive restarts: reopening the same
// directory replays the segment logs (truncating a torn tail from a crash
// mid-write, quarantining corrupt records) and serves every previously
// acknowledged chunk. opts may be nil; opts.SyncInterval selects the
// durability/fsync trade-off. Callers own Close.
func NewDiskStore(dir string, opts *StoreOptions) (*Store, error) {
	var sync time.Duration
	if opts != nil {
		sync = opts.SyncInterval
	}
	ds, err := diskstore.Open(dir, diskstore.Options{SyncInterval: sync})
	if err != nil {
		return nil, err
	}
	return configureStore(store.NewWithBackend(ds), opts), nil
}

func configureStore(s *store.Store, opts *StoreOptions) *Store {
	codec := defaultCodec
	if opts != nil {
		s.ChunkSize = opts.ChunkSize
		s.ShutoffPath = opts.ShutoffPath
		s.Net = opts.SafetyNet
		if opts.Codec != nil {
			codec = opts.Codec
		}
	}
	s.Codec = codec.core
	return &Store{s: s}
}

// The disk store must remain a drop-in backend for the blockserver store.
var _ store.StatsBackend = (*diskstore.Store)(nil)

// PutFile chunks, compresses, verifies, and admits a file. The store's
// admission loop verifies each chunk once — checksummed, then decoded and
// compared byte for byte with its input before it is stored. If a Lepton
// chunk fails that round trip, the whole file is stored deflate-compressed
// instead — the upload never fails for codec reasons (§5.7). Cancelling
// ctx aborts the upload with ctx.Err() and no FileRef; chunks admitted
// before the cancellation remain stored, and a retried upload re-admits
// them under the same content hashes.
func (st *Store) PutFile(ctx context.Context, data []byte) (FileRef, error) {
	return st.s.PutFileCtx(ctx, data)
}

// GetFile reassembles a file from its reference.
func (st *Store) GetFile(ctx context.Context, ref FileRef) ([]byte, error) {
	return st.s.GetFileCtx(ctx, ref)
}

// GetFileRange reads bytes [off, off+n) of a stored file, clamped at its
// size, decoding only the chunks (and within each chunk only the segments)
// the range overlaps. The store's ChunkSize must match the one the file was
// stored under.
func (st *Store) GetFileRange(ctx context.Context, ref FileRef, off, n int64) ([]byte, error) {
	return st.s.GetFileRangeCtx(ctx, ref, off, n)
}

// RecoverFromSafetyNet restores a chunk's raw bytes from the safety net —
// the disaster-recovery path the team drilled but never needed (§5.7).
func (st *Store) RecoverFromSafetyNet(h ChunkHash) ([]byte, error) {
	return st.s.RecoverFromSafetyNet(h)
}

// Counters returns a snapshot of operational statistics.
func (st *Store) Counters() StoreCounters { return st.s.Counters() }

// BackendStats returns a disk-backed store's durability counters (segment
// count, live/garbage bytes, quarantined records, compactions, fsyncs);
// nil for the in-memory store.
func (st *Store) BackendStats() map[string]int64 { return st.s.BackendStats() }

// Close releases a disk-backed store's segment files and background loops
// after a final fsync; for an in-memory store it is a no-op.
func (st *Store) Close() error { return st.s.Close() }
