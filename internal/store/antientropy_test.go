package store_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"sort"
	"testing"
	"time"

	"lepton/internal/store"
)

// ListChunks makes fakeTransport a store.ChunkLister: sorted ranged scan
// over one node's blobs, honoring the down switch.
func (t *fakeTransport) ListChunks(ctx context.Context, addr string, after store.Hash, max int) ([]store.Hash, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.down[addr] {
		return nil, fmt.Errorf("connection refused")
	}
	var out []store.Hash
	for h := range t.blobs[addr] {
		if bytes.Compare(h[:], after[:]) > 0 {
			out = append(out, h)
		}
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i][:], out[j][:]) < 0 })
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out, nil
}

func (t *fakeTransport) wipe(addr string, h store.Hash) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.blobs[addr], h)
}

func (t *fakeTransport) wipeAll(addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.blobs[addr] = map[store.Hash][]byte{}
}

// putChunks stores n distinct chunks through the remote and returns their
// hashes.
func putChunks(t *testing.T, r *store.Remote, n int) []store.Hash {
	t.Helper()
	ctx := context.Background()
	hashes := make([]store.Hash, n)
	for i := range hashes {
		h, err := r.Put(ctx, []byte(fmt.Sprintf("chunk payload %d", i)))
		if err != nil {
			t.Fatalf("Put: %v", err)
		}
		hashes[i] = h
	}
	return hashes
}

// assertFullyReplicated fails unless every hash is held by every node of
// its current placement.
func assertFullyReplicated(t *testing.T, r *store.Remote, tr *fakeTransport, hashes []store.Hash) {
	t.Helper()
	for _, h := range hashes {
		p := r.Placement(h)
		for _, addr := range p {
			if !tr.holds(addr, h) {
				t.Fatalf("chunk %x missing from placement replica %s", h[:8], addr)
			}
		}
	}
}

func TestAntiEntropyRestoresReplicationAfterNodeLoss(t *testing.T) {
	tr := newFakeTransport(4)
	r := newRemote(t, tr, 2)
	hashes := putChunks(t, r, 40)
	assertFullyReplicated(t, r, tr, hashes)

	// Permanent loss: the node dies and is removed from the ring. Its
	// chunks are now below R on the new placement until the sweep runs.
	victim := tr.nodes[1]
	tr.setDown(victim, true)
	tr.wipeAll(victim)
	r.RemoveNode(victim)

	getsBefore := r.StatsSnapshot()["gets"]
	repaired, err := r.AntiEntropy(context.Background())
	if err != nil {
		t.Fatalf("AntiEntropy: %v", err)
	}
	if repaired == 0 {
		t.Fatal("node loss repaired nothing — sweep found no under-replicated chunks")
	}
	assertFullyReplicated(t, r, tr, hashes)
	c := r.StatsSnapshot()
	// Proactive healing, not read-repair: no client read was involved.
	if c["gets"] != getsBefore {
		t.Fatalf("sweep performed %d client Gets", c["gets"]-getsBefore)
	}
	if c["anti_entropy_sweeps"] != 1 || c["anti_entropy_repairs"] != int64(repaired) {
		t.Fatalf("counters: %+v, want 1 sweep / %d repairs", c, repaired)
	}
	if c["read_repairs"] != 0 {
		t.Fatalf("sweep counted as read-repair: %+v", c)
	}
	// A second sweep is a no-op: the system converged.
	repaired2, err := r.AntiEntropy(context.Background())
	if err != nil || repaired2 != 0 {
		t.Fatalf("second sweep: repaired=%d err=%v, want 0, nil", repaired2, err)
	}
}

func TestAntiEntropyHealsSingleHole(t *testing.T) {
	tr := newFakeTransport(3)
	r := newRemote(t, tr, 2)
	hashes := putChunks(t, r, 10)
	// Punch one hole: wipe one replica of one chunk.
	h := hashes[3]
	addr := r.Placement(h)[1]
	tr.wipe(addr, h)
	repaired, err := r.AntiEntropy(context.Background())
	if err != nil {
		t.Fatalf("AntiEntropy: %v", err)
	}
	if repaired != 1 {
		t.Fatalf("repaired = %d, want 1", repaired)
	}
	if !tr.holds(addr, h) {
		t.Fatal("hole not healed")
	}
}

func TestAntiEntropySkipsUnreachableNodes(t *testing.T) {
	tr := newFakeTransport(4)
	r := newRemote(t, tr, 2)
	hashes := putChunks(t, r, 20)

	// One node is DOWN but not removed: placements keep naming it, the
	// sweep must neither fail nor write to it, and chunks whose only other
	// replica has a hole still heal.
	down := tr.nodes[2]
	tr.setDown(down, true)
	var holed []store.Hash
	for _, h := range hashes {
		p := r.Placement(h)
		if p[0] != down && p[1] != down {
			tr.wipe(p[1], h)
			holed = append(holed, h)
			if len(holed) == 3 {
				break
			}
		}
	}
	repaired, err := r.AntiEntropy(context.Background())
	if err != nil {
		t.Fatalf("AntiEntropy with a node down: %v", err)
	}
	if repaired != len(holed) {
		t.Fatalf("repaired = %d, want %d", repaired, len(holed))
	}
	for _, h := range holed {
		if tr.replicaCount(h) < 2 {
			t.Fatalf("chunk %x still under-replicated", h[:8])
		}
	}
	// The down node was never written behind its back.
	tr.mu.Lock()
	downHeld := len(tr.blobs[down])
	tr.mu.Unlock()
	tr.setDown(down, false)
	tr.mu.Lock()
	if len(tr.blobs[down]) != downHeld {
		t.Fatal("sweep wrote to an unreachable node")
	}
	tr.mu.Unlock()
}

func TestReannounceWarmRestart(t *testing.T) {
	tr := newFakeTransport(3)
	r := newRemote(t, tr, 2)
	hashes := putChunks(t, r, 30)

	// Warm restart with an intact disk: the node holds everything it
	// should, so the reannounce finds nothing to move.
	node := tr.nodes[0]
	var wantHeld int
	tr.mu.Lock()
	wantHeld = len(tr.blobs[node])
	tr.mu.Unlock()
	held, repaired, err := r.Reannounce(context.Background(), node)
	if err != nil {
		t.Fatalf("Reannounce: %v", err)
	}
	if held != wantHeld {
		t.Fatalf("held = %d, want %d", held, wantHeld)
	}
	if repaired != 0 {
		t.Fatalf("intact warm restart repaired %d chunks, want 0", repaired)
	}

	// A peer lost its copy of a chunk this node holds: the reannounce
	// notices and heals it (the node's catalog drives the check).
	var h store.Hash
	var peer string
	for _, hh := range hashes {
		p := r.Placement(hh)
		if p[0] == node {
			h, peer = hh, p[1]
			break
		}
	}
	if peer == "" {
		t.Skip("no chunk placed primary on node 0")
	}
	tr.wipe(peer, h)
	_, repaired, err = r.Reannounce(context.Background(), node)
	if err != nil {
		t.Fatalf("Reannounce: %v", err)
	}
	if repaired != 1 || !tr.holds(peer, h) {
		t.Fatalf("repaired = %d, peer holds = %v; want 1, true", repaired, tr.holds(peer, h))
	}

	// Reannouncing an unreachable node is an error, not an empty success.
	tr.setDown(node, true)
	if _, _, err := r.Reannounce(context.Background(), node); err == nil {
		t.Fatal("Reannounce of a down node succeeded")
	}
}

func TestRemoveNodeShrinksPlacement(t *testing.T) {
	tr := newFakeTransport(3)
	r := newRemote(t, tr, 2)
	victim := tr.nodes[0]
	r.RemoveNode(victim)
	for i := 0; i < 50; i++ {
		h := sha256.Sum256([]byte{byte(i)})
		for _, addr := range r.Placement(h) {
			if addr == victim {
				t.Fatal("placement still names the removed node")
			}
		}
		if got := len(r.Placement(h)); got != 2 {
			t.Fatalf("placement size %d, want 2", got)
		}
	}
	// Removing the rest is refused at the last node: a ring cannot empty.
	r.RemoveNode(tr.nodes[1])
	r.RemoveNode(tr.nodes[2])
	h := sha256.Sum256([]byte("x"))
	if got := len(r.Placement(h)); got == 0 {
		t.Fatal("ring emptied")
	}
	// Unknown addr is a no-op.
	r.RemoveNode("tcp:unknown:1")
}

func TestStartAntiEntropyBackgroundLoop(t *testing.T) {
	tr := newFakeTransport(3)
	r := newRemote(t, tr, 2)
	hashes := putChunks(t, r, 10)
	h := hashes[0]
	addr := r.Placement(h)[1]
	tr.wipe(addr, h)

	stop := r.StartAntiEntropy(10 * time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for !tr.holds(addr, h) {
		if time.Now().After(deadline) {
			stop()
			t.Fatal("background sweep never healed the hole")
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop()
	if r.StatsSnapshot()["anti_entropy_sweeps"] == 0 {
		t.Fatal("no sweeps counted")
	}
}

// listlessTransport hides fakeTransport's ListChunks to exercise the
// capability check.
type listlessTransport struct{ t *fakeTransport }

func (l listlessTransport) Nodes() []string { return l.t.Nodes() }
func (l listlessTransport) PutCompressed(ctx context.Context, addr string, cb []byte) (store.Hash, error) {
	return l.t.PutCompressed(ctx, addr, cb)
}
func (l listlessTransport) GetCompressed(ctx context.Context, addr string, h store.Hash) ([]byte, error) {
	return l.t.GetCompressed(ctx, addr, h)
}

func TestAntiEntropyNeedsLister(t *testing.T) {
	tr := newFakeTransport(2)
	r, err := store.NewRemote(listlessTransport{tr}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.AntiEntropy(context.Background()); err == nil {
		t.Fatal("AntiEntropy over a transport without listing succeeded")
	}
}
