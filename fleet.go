package lepton

import (
	"context"
	"time"

	"lepton/internal/server"
	"lepton/internal/store"
)

// Fleet is a client-side router over a set of live blockservers — the
// multi-node deployment of paper §5.5 as an API. It keeps pools of
// persistent connections per node, picks targets by the power of two
// random choices using real load probes (both candidates probed
// concurrently under one shared context), retries transport failures on a
// different node with the failed one excluded, optionally hedges a second
// request after a latency threshold (first response wins, the loser is
// cancelled through its context), and runs a health loop that evicts
// unreachable nodes and re-admits them once probes succeed again.
//
//	fleet, err := lepton.DialFleet([]string{
//		"tcp:10.0.0.5:7731", "tcp:10.0.0.6:7731", "tcp:10.0.0.7:7731",
//	}, nil)
//	comp, err := fleet.Compress(ctx, jpegBytes)
//	orig, err := fleet.Decompress(ctx, comp)
//
// Application-level rejections (a corrupt payload, say) are returned
// immediately without retries: the server rejected the request
// deterministically, so another node would too. A Fleet is safe for
// concurrent use; Close releases the health loop and every pooled
// connection.
type Fleet struct {
	f *server.Fleet
}

// FleetOptions tunes routing. The zero value (or nil) selects the
// defaults: 250ms probe rounds, 2s dials, 500ms health probes, hedging
// off, one attempt per node.
type FleetOptions struct {
	// ProbeTimeout bounds one power-of-two probe round; both candidate
	// probes share it.
	ProbeTimeout time.Duration
	// DialTimeout bounds establishing a new connection to a node.
	DialTimeout time.Duration
	// HedgeAfter, when positive, launches a second copy of a request on a
	// different node if the first has not answered within this duration.
	HedgeAfter time.Duration
	// HealthInterval is the eviction/re-admission probe period; negative
	// disables the loop. Disabling it makes eviction sticky until the
	// node answers a probe or serves a request, which routed traffic only
	// causes once no healthy node remains — leave the loop on unless you
	// drive recovery yourself.
	HealthInterval time.Duration
	// MaxIdlePerNode caps pooled idle connections per node.
	MaxIdlePerNode int
	// MaxAttempts bounds how many nodes one request may try; 0 means one
	// attempt per node.
	MaxAttempts int
	// Seed fixes the candidate-selection rng for reproducible runs; 0
	// seeds from the clock.
	Seed int64
	// Logf, when set, receives routing diagnostics (evictions,
	// readmissions, retries).
	Logf func(format string, args ...any)
}

// DialFleet builds a router over addrs ("tcp:<host:port>" or
// "unix:<path>") and starts its health loop. opts may be nil. Callers own
// Close.
func DialFleet(addrs []string, opts *FleetOptions) (*Fleet, error) {
	var so *server.FleetOptions
	if opts != nil {
		so = &server.FleetOptions{
			ProbeTimeout:   opts.ProbeTimeout,
			DialTimeout:    opts.DialTimeout,
			HedgeAfter:     opts.HedgeAfter,
			HealthInterval: opts.HealthInterval,
			MaxIdlePerNode: opts.MaxIdlePerNode,
			MaxAttempts:    opts.MaxAttempts,
			Seed:           opts.Seed,
			Logf:           opts.Logf,
		}
	}
	f, err := server.NewFleet(addrs, so)
	if err != nil {
		return nil, err
	}
	return &Fleet{f: f}, nil
}

// Compress routes one whole-file compression to the least-loaded probed
// node and returns the Lepton container (or a raw-mode fallback container
// for unsupported inputs, matching the single-server contract).
func (fl *Fleet) Compress(ctx context.Context, data []byte) ([]byte, error) {
	return fl.f.Compress(ctx, data)
}

// Decompress routes one container reconstruction through the fleet.
func (fl *Fleet) Decompress(ctx context.Context, comp []byte) ([]byte, error) {
	return fl.f.Decompress(ctx, comp)
}

// GetRange asks the fleet for bytes [off, off+n) of the reconstruction of
// the chunk stored under h, clamped at the chunk's size, without placement
// knowledge: nodes are picked by load, hedged like any routed request, and
// a node that does not hold the chunk is excluded and the read retried
// elsewhere. The serving node decodes only the segments the range touches
// when the chunk carries a seek index. Callers that know placement should
// prefer FleetStore.GetRange, which tries the replicas directly.
func (fl *Fleet) GetRange(ctx context.Context, h ChunkHash, off, n int64) ([]byte, error) {
	return fl.f.GetRangeAny(ctx, h, off, n)
}

// Nodes returns every configured node address, up or down.
func (fl *Fleet) Nodes() []string { return fl.f.Nodes() }

// ProbeNode asks one node for its current in-flight load on a pooled
// connection — the per-node utilization signal the load harness samples
// and the backfill engine yields to. A node that answers is re-admitted if
// it had been evicted.
func (fl *Fleet) ProbeNode(ctx context.Context, addr string) (uint32, error) {
	return fl.f.ProbeNode(ctx, addr)
}

// NodeDown reports whether addr is currently evicted.
func (fl *Fleet) NodeDown(addr string) bool { return fl.f.NodeDown(addr) }

// StatsSnapshot returns the router's counters (requests, retries, hedges
// and hedge wins, evictions, readmissions, probe and dial failures) plus
// the current up/down node split, ready for expvar/JSON export.
func (fl *Fleet) StatsSnapshot() map[string]int64 { return fl.f.StatsSnapshot() }

// Close stops the health loop and closes every pooled connection.
func (fl *Fleet) Close() error { return fl.f.Close() }

// FleetStoreOptions configures a FleetStore. The zero value (or nil) is
// replication 2 (capped at the node count), 4-MiB chunks, and pooled codec
// state shared with the package-level conversion functions.
type FleetStoreOptions struct {
	// Replication is R, the number of distinct nodes each chunk is placed
	// on.
	Replication int
	// ChunkSize for splitting files; 0 means ChunkSize (4 MiB).
	ChunkSize int
	// Codec supplies the pooled local conversion pipeline (the codec runs
	// client side, §7); nil shares the package's default codec.
	Codec *Codec
}

// FleetStore is the distributed counterpart of Store: content-addressed
// chunks placed on R fleet nodes by consistent hashing, compressed client
// side (only compressed bytes cross the network — the §7 bandwidth
// saving), verified against their content hash on every read, and
// read-repaired onto replicas found missing or corrupt. Placement depends
// only on the configured node list, so every client of the same fleet
// computes the same replicas and a node's death moves no data.
//
// A FleetStore is safe for concurrent use. All operations take a context.
type FleetStore struct {
	r *store.Remote
}

// NewFleetStore builds a distributed store over an existing Fleet's nodes.
// opts may be nil.
func NewFleetStore(fl *Fleet, opts *FleetStoreOptions) (*FleetStore, error) {
	repl := 0
	if opts != nil {
		repl = opts.Replication
	}
	r, err := store.NewRemote(fl.f, repl)
	if err != nil {
		return nil, err
	}
	codec := defaultCodec
	if opts != nil {
		r.ChunkSize = opts.ChunkSize
		if opts.Codec != nil {
			codec = opts.Codec
		}
	}
	r.Codec = codec.core
	return &FleetStore{r: r}, nil
}

// PutFile chunks and compresses a file locally (with the §5.7 round-trip
// verification; inputs Lepton cannot hold fall back to raw chunks) and
// places every chunk on its R replicas. It succeeds when each chunk
// reached at least one replica; unreachable replicas are healed later by
// read-repair.
func (st *FleetStore) PutFile(ctx context.Context, data []byte) (FileRef, error) {
	return st.r.PutFile(ctx, data)
}

// GetFile reassembles a file from its reference, reading each chunk from
// the first healthy replica.
func (st *FleetStore) GetFile(ctx context.Context, ref FileRef) ([]byte, error) {
	return st.r.GetFile(ctx, ref)
}

// Put places one already-compressed chunk on its replicas and returns its
// content address.
func (st *FleetStore) Put(ctx context.Context, compressed []byte) (ChunkHash, error) {
	return st.r.Put(ctx, compressed)
}

// Get fetches and decompresses one chunk.
func (st *FleetStore) Get(ctx context.Context, h ChunkHash) ([]byte, error) {
	return st.r.Get(ctx, h)
}

// GetCompressed fetches one chunk's stored compressed bytes without
// decoding them.
func (st *FleetStore) GetCompressed(ctx context.Context, h ChunkHash) ([]byte, error) {
	return st.r.GetCompressed(ctx, h)
}

// GetRange fetches bytes [off, off+n) of one chunk's reconstruction,
// clamped at the chunk's size, from the first replica that serves it: the
// replica decodes only the segments the range touches (seek-indexed
// containers), so a small read of a large chunk costs one segment, not one
// chunk. When no replica serves the range the chunk is fetched whole,
// verified, and range-decoded locally.
func (st *FleetStore) GetRange(ctx context.Context, h ChunkHash, off, n int64) ([]byte, error) {
	return st.r.GetRange(ctx, h, off, n)
}

// GetFileRange reads bytes [off, off+n) of a stored file, clamped at its
// size, touching only the chunks — and within each chunk only the decoded
// segments — that the range overlaps. The store's ChunkSize must match the
// one the file was stored under. This is the ranged-download primitive an
// HTTP gateway maps Range: requests onto (see examples/gateway).
func (st *FleetStore) GetFileRange(ctx context.Context, ref FileRef, off, n int64) ([]byte, error) {
	return st.r.GetFileRange(ctx, ref, off, n)
}

// Placement returns the replica addresses that should hold h, in read
// order.
func (st *FleetStore) Placement(h ChunkHash) []string { return st.r.Placement(h) }

// StatsSnapshot returns the store's operational counters (puts, gets,
// replica_errors, misses, read_repairs, corrupt_replicas,
// anti_entropy_sweeps, anti_entropy_repairs, range_gets, range_fallbacks)
// as a flat name→value map, the same shape Fleet.StatsSnapshot and the
// per-node /debug/vars export — ready to register as an admin-plane
// source.
func (st *FleetStore) StatsSnapshot() map[string]int64 { return st.r.StatsSnapshot() }

// RemoveNode permanently removes addr from the placement ring — for a
// node that is gone for good, not merely down (eviction handles that).
// Placement of its chunks moves to the next ring nodes; run AntiEntropy
// (or wait for the background sweep) to copy the data there and restore
// replication R.
func (st *FleetStore) RemoveNode(addr string) { st.r.RemoveNode(addr) }

// AntiEntropy runs one full healing sweep: every node's chunk listing is
// compared against ring placement and chunks below replication R are
// copied to the replicas missing them, without any client read involved.
// Returns the number of replica copies made.
func (st *FleetStore) AntiEntropy(ctx context.Context) (int, error) {
	return st.r.AntiEntropy(ctx)
}

// StartAntiEntropy launches a background AntiEntropy sweep every interval
// (0 means one minute) and returns its stop function.
func (st *FleetStore) StartAntiEntropy(interval time.Duration) (stop func()) {
	return st.r.StartAntiEntropy(interval)
}

// Reannounce re-integrates a warm-restarted node: its chunk listing
// proves what its disk still holds (held), and anything placement
// assigned to it or its peers that is missing gets copied (repaired). A
// node restarted against an intact data dir reports repaired == 0.
func (st *FleetStore) Reannounce(ctx context.Context, addr string) (held, repaired int, err error) {
	return st.r.Reannounce(ctx, addr)
}
