package store_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"testing"

	"lepton/internal/store"
)

// fakeTransport is an in-memory RemoteTransport: one map per node, with
// switches to take nodes down and corrupt stored bytes.
type fakeTransport struct {
	nodes []string

	mu      sync.Mutex
	blobs   map[string]map[store.Hash][]byte
	down    map[string]bool
	corrupt map[string]bool // node returns flipped bytes on Get
}

func newFakeTransport(n int) *fakeTransport {
	t := &fakeTransport{
		blobs:   map[string]map[store.Hash][]byte{},
		down:    map[string]bool{},
		corrupt: map[string]bool{},
	}
	for i := 0; i < n; i++ {
		addr := fmt.Sprintf("tcp:10.0.0.%d:7731", i+1)
		t.nodes = append(t.nodes, addr)
		t.blobs[addr] = map[store.Hash][]byte{}
	}
	return t
}

func (t *fakeTransport) Nodes() []string { return t.nodes }

func (t *fakeTransport) PutCompressed(ctx context.Context, addr string, cb []byte) (store.Hash, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.down[addr] {
		return store.Hash{}, errors.New("connection refused")
	}
	h := sha256.Sum256(cb)
	t.blobs[addr][h] = append([]byte(nil), cb...)
	return h, nil
}

func (t *fakeTransport) GetCompressed(ctx context.Context, addr string, h store.Hash) ([]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.down[addr] {
		return nil, errors.New("connection refused")
	}
	cb, ok := t.blobs[addr][h]
	if !ok {
		return nil, fmt.Errorf("%w: %s", store.ErrRemoteMiss, addr)
	}
	if t.corrupt[addr] {
		bad := append([]byte(nil), cb...)
		bad[len(bad)/2] ^= 0x40
		return bad, nil
	}
	return append([]byte(nil), cb...), nil
}

func (t *fakeTransport) holds(addr string, h store.Hash) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, ok := t.blobs[addr][h]
	return ok
}

func (t *fakeTransport) setDown(addr string, down bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.down[addr] = down
}

func (t *fakeTransport) replicaCount(h store.Hash) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, m := range t.blobs {
		if _, ok := m[h]; ok {
			n++
		}
	}
	return n
}

func newRemote(t *testing.T, tr *fakeTransport, repl int) *store.Remote {
	t.Helper()
	r, err := store.NewRemote(tr, repl)
	if err != nil {
		t.Fatal(err)
	}
	r.ChunkSize = 16 << 10
	return r
}

func TestPlacementDistinctAndStable(t *testing.T) {
	tr := newFakeTransport(5)
	r := newRemote(t, tr, 3)
	perNode := map[string]int{}
	for i := 0; i < 200; i++ {
		h := sha256.Sum256([]byte{byte(i), byte(i >> 8)})
		p := r.Placement(h)
		if len(p) != 3 {
			t.Fatalf("placement %v: want 3 replicas", p)
		}
		seen := map[string]bool{}
		for _, a := range p {
			if seen[a] {
				t.Fatalf("placement %v repeats a node", p)
			}
			seen[a] = true
			perNode[a]++
		}
		// Stable: recomputing yields the same order.
		p2 := r.Placement(h)
		for k := range p {
			if p[k] != p2[k] {
				t.Fatalf("placement not stable: %v vs %v", p, p2)
			}
		}
	}
	// Every node should carry a reasonable share of 200*3 placements.
	for _, n := range tr.Nodes() {
		if perNode[n] < 40 {
			t.Fatalf("ring is unbalanced: %v", perNode)
		}
	}
}

func TestRemotePutReplicates(t *testing.T) {
	tr := newFakeTransport(4)
	r := newRemote(t, tr, 2)
	cb := []byte("pretend-compressed-chunk")
	h, err := r.Put(context.Background(), cb)
	if err != nil {
		t.Fatal(err)
	}
	if h != sha256.Sum256(cb) {
		t.Fatal("put hash is not the content hash")
	}
	if got := tr.replicaCount(h); got != 2 {
		t.Fatalf("chunk on %d nodes, want 2", got)
	}
	for _, addr := range r.Placement(h) {
		if !tr.holds(addr, h) {
			t.Fatalf("placement node %s does not hold the chunk", addr)
		}
	}
}

func TestRemotePutSucceedsWithOneReplicaDown(t *testing.T) {
	tr := newFakeTransport(3)
	r := newRemote(t, tr, 2)
	cb := []byte("chunk-bytes-while-degraded")
	sum := sha256.Sum256(cb)
	tr.setDown(r.Placement(sum)[0], true)
	h, err := r.Put(context.Background(), cb)
	if err != nil {
		t.Fatalf("put with one replica down: %v", err)
	}
	if got := tr.replicaCount(h); got != 1 {
		t.Fatalf("chunk on %d nodes, want 1 (degraded)", got)
	}
	if r.StatsSnapshot()["replica_errors"] == 0 {
		t.Fatal("degraded put recorded no replica error")
	}
}

func TestRemoteGetReadRepairsMissingReplica(t *testing.T) {
	tr := newFakeTransport(3)
	r := newRemote(t, tr, 2)
	cb := []byte("chunk-that-will-be-repaired")
	sum := sha256.Sum256(cb)
	primary := r.Placement(sum)[0]

	// Write while the primary is down: only the secondary holds the chunk.
	tr.setDown(primary, true)
	if _, err := r.Put(context.Background(), cb); err != nil {
		t.Fatal(err)
	}
	if tr.holds(primary, sum) {
		t.Fatal("down primary somehow stored the chunk")
	}

	// The primary recovers; a read must serve from the secondary and write
	// the chunk back to the primary.
	tr.setDown(primary, false)
	got, err := r.GetCompressed(context.Background(), sum)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, cb) {
		t.Fatal("read returned wrong bytes")
	}
	if !tr.holds(primary, sum) {
		t.Fatal("read did not repair the missing replica")
	}
	if r.StatsSnapshot()["read_repairs"] == 0 {
		t.Fatal("repair not counted")
	}
}

func TestRemoteGetDetectsCorruptReplica(t *testing.T) {
	tr := newFakeTransport(3)
	r := newRemote(t, tr, 2)
	cb := []byte("chunk-with-one-corrupt-replica")
	h, err := r.Put(context.Background(), cb)
	if err != nil {
		t.Fatal(err)
	}
	// First replica returns flipped bytes; the read must reject them by
	// content hash and serve from the second.
	tr.corrupt[r.Placement(h)[0]] = true
	got, err := r.GetCompressed(context.Background(), h)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, cb) {
		t.Fatal("corrupt replica's bytes leaked through")
	}
	if r.StatsSnapshot()["corrupt_replicas"] == 0 {
		t.Fatal("corruption not counted")
	}
}

func TestRemoteGetFailsWhenAllReplicasGone(t *testing.T) {
	tr := newFakeTransport(2)
	r := newRemote(t, tr, 2)
	cb := []byte("doomed-chunk")
	h, err := r.Put(context.Background(), cb)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range tr.Nodes() {
		tr.setDown(n, true)
	}
	if _, err := r.GetCompressed(context.Background(), h); err == nil {
		t.Fatal("get succeeded with every replica down")
	}
}

func TestRemotePutFileRoundtrip(t *testing.T) {
	tr := newFakeTransport(4)
	r := newRemote(t, tr, 2)
	data := gen(t, 61, 512, 384) // several 16-KiB chunks
	ref, err := r.PutFile(context.Background(), data)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Chunks) < 2 {
		t.Fatalf("only %d chunks; test wants a multi-chunk file", len(ref.Chunks))
	}
	back, err := r.GetFile(context.Background(), ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("distributed file round trip mismatch")
	}
	// Survives any single node failure: every chunk has 2 replicas.
	tr.setDown(tr.Nodes()[0], true)
	back, err = r.GetFile(context.Background(), ref)
	if err != nil {
		t.Fatalf("get with one node down: %v", err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("degraded read mismatch")
	}
}

func TestRemotePutFileNonJPEGFallsBackToRaw(t *testing.T) {
	tr := newFakeTransport(3)
	r := newRemote(t, tr, 2)
	data := bytes.Repeat([]byte("definitely not a jpeg. "), 3000)
	ref, err := r.PutFile(context.Background(), data)
	if err != nil {
		t.Fatal(err)
	}
	back, err := r.GetFile(context.Background(), ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("raw fallback round trip mismatch")
	}
}
