package store

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"

	"lepton/internal/chunk"
	"lepton/internal/core"
	"lepton/internal/metrics"
)

// ErrRemoteMiss marks a replica that answered but does not hold the
// requested chunk — the read-repairable condition, as opposed to a replica
// that was unreachable (which may still hold it).
var ErrRemoteMiss = errors.New("store: chunk not found on node")

// RemoteTransport moves chunks to and from named nodes. server.Fleet
// implements it over the blockserver protocol with pooled, health-checked
// connections; tests substitute in-memory fakes.
type RemoteTransport interface {
	// Nodes returns the full, fixed node set placement hashes over;
	// temporarily unreachable nodes stay in the list so placements remain
	// stable across failures.
	Nodes() []string
	// PutCompressed uploads one compressed chunk to one node and returns
	// the content hash the node admitted it under.
	PutCompressed(ctx context.Context, addr string, compressed []byte) (Hash, error)
	// GetCompressed fetches one chunk's compressed bytes from one node; a
	// node that does not hold the chunk fails with ErrRemoteMiss (wrapped).
	GetCompressed(ctx context.Context, addr string, h Hash) ([]byte, error)
}

// RangeTransport is the optional range-read capability a RemoteTransport
// may implement (server.Fleet does, over OpGetRange): fetch bytes
// [off, off+n) of one chunk's reconstruction from one node, letting the
// node decode only the segments the range touches. A node that does not
// hold the chunk fails with ErrRemoteMiss (wrapped). Transports without the
// capability are served by the local fallback in Remote.GetRange.
type RangeTransport interface {
	GetRange(ctx context.Context, addr string, h Hash, off, n int64) ([]byte, error)
}

// Remote is the fleet-backed chunk store: content-addressed chunks placed
// on R nodes by consistent hashing, written through the blockserver store
// protocol, and read back with verification against the content hash plus
// read-repair of replicas found missing or corrupt. The codec runs client
// side (the paper's §7 deployment: compressed bytes are what crosses the
// network), so every replica stores identical bytes and any one of them
// can serve a read.
type Remote struct {
	// T moves chunks; typically a *server.Fleet.
	T RemoteTransport
	// Codec supplies pooled conversion state for local compress/decode;
	// NewRemote sets a fresh one.
	Codec *core.Codec
	// Replication is R, the number of distinct nodes each chunk is placed
	// on; 0 means min(2, nodes).
	Replication int
	// ChunkSize for splitting files; 0 means the 4-MiB default.
	ChunkSize int

	// ringMu guards ring: membership changes only through RemoveNode (a
	// permanent loss shrinks placement; mere unreachability never does).
	ringMu sync.RWMutex
	ring   *hashRing

	stats *metrics.Set
}

// NewRemote builds a distributed store over t's node set.
func NewRemote(t RemoteTransport, replication int) (*Remote, error) {
	nodes := t.Nodes()
	if len(nodes) == 0 {
		return nil, errors.New("store: remote needs at least one node")
	}
	if replication <= 0 {
		replication = 2
		if len(nodes) < 2 {
			replication = len(nodes)
		}
	}
	if replication > len(nodes) {
		replication = len(nodes)
	}
	// replica_errors counts replica writes and reads lost to unreachable
	// nodes, misses replicas that answered "no such chunk",
	// anti_entropy_repairs replica copies made by sweeps (not by
	// read-repair), and range_fallbacks range reads served by a
	// whole-chunk fetch plus a local range decode.
	stats := metrics.New(nil, "puts", "gets", "replica_errors", "misses", "read_repairs",
		"corrupt_replicas", "anti_entropy_sweeps", "anti_entropy_repairs", "range_gets", "range_fallbacks")
	return &Remote{T: t, Codec: core.NewCodec(), Replication: replication, ring: newHashRing(nodes), stats: stats}, nil
}

// Placement returns the R distinct node addresses that should hold h, in
// read-preference order.
func (r *Remote) Placement(h Hash) []string {
	r.ringMu.RLock()
	defer r.ringMu.RUnlock()
	return r.ring.placement(h, r.Replication)
}

// Put places one compressed chunk on its R replicas, written concurrently
// (the writes are independent and idempotent, so a put pays one replica
// round-trip of latency, not R). It succeeds when at least one replica
// admitted the chunk; unreachable replicas are counted and healed later by
// read-repair. The returned hash is the content address (SHA-256 of the
// compressed bytes), cross-checked against what each replica computed.
func (r *Remote) Put(ctx context.Context, compressed []byte) (Hash, error) {
	sum := sha256.Sum256(compressed)
	r.stats.Add("puts", 1)
	replicas := r.Placement(sum)
	errs := make([]error, len(replicas))
	var wg sync.WaitGroup
	for i, addr := range replicas {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			h, err := r.T.PutCompressed(ctx, addr, compressed)
			if err != nil {
				errs[i] = err
				return
			}
			if h != sum {
				errs[i] = fmt.Errorf("store: node %s admitted chunk under %x, want %x", addr, h[:8], sum[:8])
			}
		}(i, addr)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return Hash{}, err
	}
	var stored int
	var lastErr error
	for _, err := range errs {
		if err == nil {
			stored++
			continue
		}
		r.stats.Add("replica_errors", 1)
		lastErr = err
	}
	if stored == 0 {
		return Hash{}, fmt.Errorf("store: put %x: no replica accepted: %w", sum[:8], lastErr)
	}
	return sum, nil
}

// GetCompressed fetches one chunk's compressed bytes from the first replica
// that both holds it and passes the content-hash check. Replicas found
// missing or corrupt along the way are repaired with the good copy —
// content-addressed writes are idempotent, so repairing is always safe.
func (r *Remote) GetCompressed(ctx context.Context, h Hash) ([]byte, error) {
	r.stats.Add("gets", 1)
	replicas := r.Placement(h)
	var repair []string
	var lastErr error
	for _, addr := range replicas {
		cb, err := r.T.GetCompressed(ctx, addr, h)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			lastErr = err
			if errors.Is(err, ErrRemoteMiss) {
				r.stats.Add("misses", 1)
				repair = append(repair, addr)
			} else {
				// Unreachable: it may still hold the chunk; don't rewrite.
				r.stats.Add("replica_errors", 1)
			}
			continue
		}
		if sha256.Sum256(cb) != h {
			// The §5.7 checksum discipline, applied across the network: a
			// replica returning different bytes is corrupt and gets the
			// good copy written back over it.
			r.stats.Add("corrupt_replicas", 1)
			lastErr = fmt.Errorf("store: node %s returned corrupt bytes for %x", addr, h[:8])
			repair = append(repair, addr)
			continue
		}
		for _, m := range repair {
			// A repair is only a repair if the replica admitted the chunk
			// under its content address; anything else (write failure, or
			// the corrupted-admission case Put defends against) leaves the
			// replica unhealed and is counted so the cycle is visible.
			rh, err := r.T.PutCompressed(ctx, m, cb)
			if err == nil && rh == h {
				r.stats.Add("read_repairs", 1)
			} else {
				r.stats.Add("replica_errors", 1)
			}
		}
		return cb, nil
	}
	return nil, fmt.Errorf("store: chunk %x unavailable on all %d replicas: %w", h[:8], len(replicas), lastErr)
}

// Get fetches and decodes one chunk.
func (r *Remote) Get(ctx context.Context, h Hash) ([]byte, error) {
	cb, err := r.GetCompressed(ctx, h)
	if err != nil {
		return nil, err
	}
	return r.Codec.DecodeCtx(ctx, cb, 0)
}

// GetRange fetches bytes [off, off+n) of one chunk's reconstruction,
// clamped at the chunk's size. With a range-capable transport the decode
// runs on the replica holding the chunk — only the segments the range
// touches — and the replicas are tried in placement order. A partial read
// cannot be verified against the chunk's content hash (that covers the
// whole compressed chunk), so range reads trust the replica's
// admission-time verification and perform no read-repair; when every
// replica fails, or the transport lacks the capability, the chunk is
// fetched whole through the verifying GetCompressed path and range-decoded
// locally.
func (r *Remote) GetRange(ctx context.Context, h Hash, off, n int64) ([]byte, error) {
	if off < 0 || n < 0 {
		return nil, fmt.Errorf("store: negative range off=%d n=%d", off, n)
	}
	r.stats.Add("range_gets", 1)
	if rt, ok := r.T.(RangeTransport); ok {
		for _, addr := range r.Placement(h) {
			b, err := rt.GetRange(ctx, addr, h, off, n)
			if err == nil {
				return b, nil
			}
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			if errors.Is(err, ErrRemoteMiss) {
				r.stats.Add("misses", 1)
			} else {
				r.stats.Add("replica_errors", 1)
			}
		}
	}
	r.stats.Add("range_fallbacks", 1)
	cb, err := r.GetCompressed(ctx, h)
	if err != nil {
		return nil, err
	}
	return r.Codec.DecodeRangeCtx(ctx, cb, off, n, 0)
}

// GetFileRange reads bytes [off, off+n) of a stored file, clamped at its
// size, touching only the chunks the range overlaps. Chunk k of a file
// covers exactly raw bytes [k*ChunkSize, (k+1)*ChunkSize) (the splitter
// cuts on fixed boundaries; the last chunk is short), so the mapping is
// pure arithmetic — but it requires this store's ChunkSize to match the one
// the file was stored under, which is checked against the ref's chunk
// count.
func (r *Remote) GetFileRange(ctx context.Context, ref FileRef, off, n int64) ([]byte, error) {
	size := int64(r.ChunkSize)
	if size <= 0 {
		size = chunk.DefaultChunkSize
	}
	return getFileRange(ctx, ref, off, n, size, r.GetRange)
}

// getFileRange is the chunk-arithmetic core shared by the remote and local
// stores: clamp [off, off+n) to the file, check the ref's chunk count
// against the chunk size, and fan the per-chunk sub-ranges out through
// getRange.
func getFileRange(ctx context.Context, ref FileRef, off, n, chunkSize int64,
	getRange func(ctx context.Context, h Hash, off, n int64) ([]byte, error)) ([]byte, error) {
	if off < 0 || n < 0 {
		return nil, fmt.Errorf("store: negative range off=%d n=%d", off, n)
	}
	end := off + n
	if off > ref.Size {
		off = ref.Size
	}
	if end > ref.Size || end < 0 { // end < 0: off+n overflowed int64
		end = ref.Size
	}
	if end <= off {
		return []byte{}, nil
	}
	if want := (ref.Size + chunkSize - 1) / chunkSize; int64(len(ref.Chunks)) != want {
		return nil, fmt.Errorf("store: file ref has %d chunks for %d bytes at chunk size %d (stored under a different chunk size?)",
			len(ref.Chunks), ref.Size, chunkSize)
	}
	k0 := int(off / chunkSize)
	k1 := int((end + chunkSize - 1) / chunkSize)
	parts := make([][]byte, k1-k0)
	err := forEachChunk(ctx, k1-k0, func(ctx context.Context, i int) error {
		k := k0 + i
		c0 := int64(k) * chunkSize
		cEnd := c0 + chunkSize
		if cEnd > ref.Size {
			cEnd = ref.Size
		}
		a, z := off, end
		if a < c0 {
			a = c0
		}
		if z > cEnd {
			z = cEnd
		}
		b, err := getRange(ctx, ref.Chunks[k], a-c0, z-a)
		if err != nil {
			return fmt.Errorf("store: chunk %d: %w", k, err)
		}
		if int64(len(b)) != z-a {
			return fmt.Errorf("store: chunk %d range returned %d bytes, want %d", k, len(b), z-a)
		}
		parts[i] = b
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, end-off)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out, nil
}

// fileChunkConcurrency bounds how many of a file's chunks PutFile/GetFile
// move at once: chunks are independent (content-addressed, distinct
// replica sets), so fanning out cuts file latency from chunk-count round
// trips toward one, while the bound keeps a single large file from
// monopolizing the fleet's worker pools.
const fileChunkConcurrency = 4

// forEachChunk runs fn over indices 0..n-1 with bounded concurrency. The
// first failure cancels the shared context so the chunks still queued or
// in flight abort instead of running the whole file's worth of doomed
// round trips; the error returned is the lowest-index failure that was
// not itself caused by that cancellation.
func forEachChunk(ctx context.Context, n int, fn func(ctx context.Context, k int) error) error {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	sem := make(chan struct{}, fileChunkConcurrency)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if errs[k] = fn(cctx, k); errs[k] != nil {
				cancel()
			}
		}(k)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	var fallback error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if fallback == nil {
			fallback = err
		}
		if !errors.Is(err, context.Canceled) {
			return err
		}
	}
	return fallback
}

// PutFile chunk-compresses a file locally (client-side codec, with the
// §5.7 round-trip verification) and places every chunk on its replicas,
// several chunks in flight at a time. Inputs Lepton cannot hold fall back
// to raw containers, exactly as the single-node Store does: the upload
// never fails for codec reasons.
func (r *Remote) PutFile(ctx context.Context, data []byte) (FileRef, error) {
	size := r.ChunkSize
	if size <= 0 {
		size = chunk.DefaultChunkSize
	}
	comp, err := chunk.CompressCtx(ctx, data, chunk.Options{ChunkSize: size, VerifyRoundtrip: true, Codec: r.Codec})
	if err != nil {
		if ctx.Err() != nil {
			return FileRef{}, ctx.Err()
		}
		comp = chunk.RawChunks(data, size, r.Codec)
	}
	ref := FileRef{Size: int64(len(data)), Chunks: make([]Hash, len(comp))}
	err = forEachChunk(ctx, len(comp), func(ctx context.Context, k int) error {
		h, err := r.Put(ctx, comp[k])
		if err != nil {
			return fmt.Errorf("store: chunk %d: %w", k, err)
		}
		ref.Chunks[k] = h
		return nil
	})
	if err != nil {
		return FileRef{}, err
	}
	return ref, nil
}

// GetFile reassembles a file from its reference, fetching and decoding
// several chunks concurrently and assembling them in order.
func (r *Remote) GetFile(ctx context.Context, ref FileRef) ([]byte, error) {
	parts := make([][]byte, len(ref.Chunks))
	err := forEachChunk(ctx, len(ref.Chunks), func(ctx context.Context, k int) error {
		b, err := r.Get(ctx, ref.Chunks[k])
		if err != nil {
			return err
		}
		parts[k] = b
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, ref.Size)
	for _, p := range parts {
		out = append(out, p...)
	}
	if int64(len(out)) != ref.Size {
		return nil, fmt.Errorf("store: reassembled %d bytes, want %d", len(out), ref.Size)
	}
	return out, nil
}

// StatsSnapshot returns the store's counters as a flat name→value map in
// the shape every other stats surface exports (Blockserver and Fleet
// StatsSnapshot), so the admin plane and the load harness scrape all of
// them uniformly.
func (r *Remote) StatsSnapshot() map[string]int64 { return r.stats.Snapshot() }

// --- consistent-hash ring -------------------------------------------------

// ringVnodes spreads each node across the ring so placement stays balanced
// with a handful of nodes.
const ringVnodes = 64

type ringPoint struct {
	pos  uint64
	node int
}

// hashRing is a fixed consistent-hash ring: chunk hashes map to positions,
// and a chunk's replicas are the first R distinct nodes walking clockwise
// from its position. Placement depends only on the node list, never on
// liveness, so every client of the same fleet computes the same replicas
// and a node's death moves no data.
type hashRing struct {
	nodes  []string
	points []ringPoint
}

func newHashRing(nodes []string) *hashRing {
	r := &hashRing{nodes: append([]string(nil), nodes...)}
	r.points = make([]ringPoint, 0, len(nodes)*ringVnodes)
	for i, addr := range r.nodes {
		for v := 0; v < ringVnodes; v++ {
			s := sha256.Sum256([]byte(fmt.Sprintf("%s#%d", addr, v)))
			r.points = append(r.points, ringPoint{pos: binary.LittleEndian.Uint64(s[:8]), node: i})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].pos != r.points[j].pos {
			return r.points[i].pos < r.points[j].pos
		}
		return r.points[i].node < r.points[j].node
	})
	return r
}

// placement returns the first k distinct nodes clockwise from h's position.
func (r *hashRing) placement(h Hash, k int) []string {
	if k > len(r.nodes) {
		k = len(r.nodes)
	}
	pos := binary.LittleEndian.Uint64(h[:8])
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].pos >= pos })
	seen := make(map[int]bool, k)
	out := make([]string, 0, k)
	for i := 0; len(out) < k && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen[p.node] {
			continue
		}
		seen[p.node] = true
		out = append(out, r.nodes[p.node])
	}
	return out
}
