package store

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"time"
)

// The fleet's second healing path. Read-repair (remote.go) only heals
// chunks that happen to get read; a permanently lost node leaves every
// chunk it exclusively replicated sitting below R until someone asks for
// it. Anti-entropy closes that gap: walk what the nodes actually hold
// (OpListChunks), compare against what ring placement says they should
// hold, and copy chunks to the replicas missing them — proactively, with
// no client read involved. The same sweep, restricted to one node's
// catalog, is the warm-restart re-announce: a node rejoining with a disk
// full of chunks proves what it holds and gets topped up with anything
// placement assigned it while it was down.

// ChunkLister is the transport capability anti-entropy needs beyond
// RemoteTransport: the ranged scan over one node's stored hashes.
// server.Fleet implements it over OpListChunks.
type ChunkLister interface {
	// ListChunks returns up to max of addr's stored chunk hashes strictly
	// greater than after, in ascending order; an empty page ends the scan.
	ListChunks(ctx context.Context, addr string, after Hash, max int) ([]Hash, error)
}

// listPageSize is the page the sweep requests per round trip; servers cap
// pages at their own limit, so this is an upper bound, not a demand.
const listPageSize = 4096

// listAll pages through one node's full chunk listing.
func (r *Remote) listAll(ctx context.Context, lister ChunkLister, addr string) ([]Hash, error) {
	var (
		all   []Hash
		after Hash
	)
	for {
		page, err := lister.ListChunks(ctx, addr, after, listPageSize)
		if err != nil {
			return nil, err
		}
		if len(page) == 0 {
			return all, nil
		}
		all = append(all, page...)
		after = page[len(page)-1]
	}
}

// RemoveNode permanently removes addr from the placement ring: a node
// that is gone for good (not merely down) must stop being counted as a
// replica, or every chunk placed on it stays silently below R forever.
// Placement of the affected chunks moves to the next nodes clockwise;
// the following anti-entropy sweep copies the data there.
func (r *Remote) RemoveNode(addr string) {
	r.ringMu.Lock()
	defer r.ringMu.Unlock()
	var nodes []string
	for _, n := range r.ring.nodes {
		if n != addr {
			nodes = append(nodes, n)
		}
	}
	if len(nodes) == len(r.ring.nodes) || len(nodes) == 0 {
		return // unknown addr, or refusing to empty the ring
	}
	r.ring = newHashRing(nodes)
}

// nodesSnapshot returns the current ring membership.
func (r *Remote) nodesSnapshot() []string {
	r.ringMu.RLock()
	defer r.ringMu.RUnlock()
	return append([]string(nil), r.ring.nodes...)
}

// sweep is the shared engine behind AntiEntropy and Reannounce: list every
// ring node, take the union of the listings from catalogAddrs as the chunk
// catalog, and for each catalogued chunk copy it to any placement replica
// whose listing lacks it. Nodes that fail to list are skipped both as
// holders (cannot fetch from them) and as repair targets (a put that lands
// while the node is in an unknown state proves nothing — the next sweep
// retries); with strict set, a catalog node that fails to list is an error
// instead (a reannounce of an unreachable node is meaningless). Returns
// the catalog size and the number of replica copies made.
func (r *Remote) sweep(ctx context.Context, catalogAddrs []string, strict bool) (held, repaired int, err error) {
	lister, ok := r.T.(ChunkLister)
	if !ok {
		return 0, 0, errors.New("store: transport does not support chunk listing")
	}
	nodes := r.nodesSnapshot()
	inCatalog := make(map[string]bool, len(catalogAddrs))
	for _, a := range catalogAddrs {
		inCatalog[a] = true
	}

	holders := make(map[Hash]map[string]bool)
	listed := make(map[string]bool, len(nodes))
	catalog := make(map[Hash]bool)
	for _, addr := range nodes {
		hs, lerr := r.listAll(ctx, lister, addr)
		if lerr != nil {
			if ctx.Err() != nil {
				return 0, 0, ctx.Err()
			}
			if strict && inCatalog[addr] {
				return 0, 0, fmt.Errorf("store: list %s: %w", addr, lerr)
			}
			r.stats.Add("replica_errors", 1)
			continue
		}
		listed[addr] = true
		for _, h := range hs {
			m := holders[h]
			if m == nil {
				m = make(map[string]bool, r.Replication)
				holders[h] = m
			}
			m[addr] = true
			if inCatalog[addr] {
				catalog[h] = true
			}
		}
	}

	for h := range catalog {
		if err := ctx.Err(); err != nil {
			return len(catalog), repaired, err
		}
		for _, target := range r.Placement(h) {
			if !listed[target] || holders[h][target] {
				continue
			}
			if r.repairTo(ctx, h, target, holders[h]) {
				holders[h][target] = true
				repaired++
			}
		}
	}
	return len(catalog), repaired, nil
}

// repairTo copies chunk h to target from any holder whose bytes verify
// against the content hash, reporting whether target now holds it.
func (r *Remote) repairTo(ctx context.Context, h Hash, target string, from map[string]bool) bool {
	for addr := range from {
		cb, err := r.T.GetCompressed(ctx, addr, h)
		if err != nil {
			r.stats.Add("replica_errors", 1)
			continue
		}
		if sha256.Sum256(cb) != h {
			r.stats.Add("corrupt_replicas", 1)
			continue
		}
		rh, err := r.T.PutCompressed(ctx, target, cb)
		if err != nil || rh != h {
			r.stats.Add("replica_errors", 1)
			return false
		}
		r.stats.Add("anti_entropy_repairs", 1)
		return true
	}
	return false
}

// AntiEntropy runs one full sweep: every chunk any ring node holds is
// checked against its placement and copied to replicas missing it. The
// union catalog matters — after RemoveNode, placement points at nodes
// that never saw the affected chunks, so only the survivors' listings
// know what needs copying. Returns the number of replica copies made.
func (r *Remote) AntiEntropy(ctx context.Context) (int, error) {
	r.stats.Add("anti_entropy_sweeps", 1)
	_, repaired, err := r.sweep(ctx, r.nodesSnapshot(), false)
	return repaired, err
}

// Reannounce runs a sweep restricted to addr's catalog — the warm-restart
// path. The rejoined node's listing proves which chunks its disk still
// holds (held); chunks placement assigned to it or its peers while it was
// down get copied (repaired). A node restarting from an intact data dir
// reports repaired == 0: nothing was lost, so nothing moves.
func (r *Remote) Reannounce(ctx context.Context, addr string) (heldChunks, repaired int, err error) {
	return r.sweep(ctx, []string{addr}, true)
}

// StartAntiEntropy launches a background sweep every interval and returns
// a stop function. Sweeps run one at a time; errors are counted in
// ReplicaErrors by the sweep itself and do not stop the loop.
func (r *Remote) StartAntiEntropy(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = time.Minute
	}
	done := make(chan struct{})
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		t := time.NewTicker(interval)
		defer t.Stop()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go func() {
			<-done
			cancel()
		}()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				_, _ = r.AntiEntropy(ctx)
			}
		}
	}()
	return func() {
		close(done)
		<-stopped
	}
}
