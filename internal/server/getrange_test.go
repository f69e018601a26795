package server_test

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"lepton/internal/core"
	"lepton/internal/server"
	"lepton/internal/store"
)

// putTestChunk stores one raw payload as a single chunk via OpPutChunkRaw
// and returns its content hash.
func putTestChunk(t *testing.T, addr string, raw []byte) [32]byte {
	t.Helper()
	resp, err := oneShot(addr, server.OpPutChunkRaw, raw, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var h [32]byte
	if len(resp) != len(h) {
		t.Fatalf("hash length %d", len(resp))
	}
	copy(h[:], resp)
	return h
}

// TestGetRangeOp exercises OpGetRange end to end against a store-backed
// server: every probed range must equal the matching slice of the chunk's
// raw bytes, the stored chunk's seek index must carry the reads on the fast
// path, and the counters must advance.
func TestGetRangeOp(t *testing.T) {
	st := store.New()
	b := &server.Blockserver{Store: st}
	addr := startServer(t, "tcp:127.0.0.1:0", b)

	raw := gen(t, 61, 320, 240)
	h := putTestChunk(t, addr, raw)

	cl, err := server.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ctx := context.Background()
	size := int64(len(raw))
	before := core.RangeStats()
	probes := [][2]int64{
		{0, 1}, {0, 1024}, {0, size}, {size / 2, 512},
		{size - 7, 7}, {size - 1, 100}, {size, 10}, {size + 99, 5},
		{size / 3, 0},
	}
	for _, p := range probes {
		got, err := cl.GetRange(ctx, h, p[0], p[1])
		if err != nil {
			t.Fatalf("GetRange(off=%d n=%d): %v", p[0], p[1], err)
		}
		a, z := p[0], p[0]+p[1]
		if a > size {
			a = size
		}
		if z > size {
			z = size
		}
		if z < a {
			z = a
		}
		if !bytes.Equal(got, raw[a:z]) {
			t.Fatalf("GetRange(off=%d n=%d): %d bytes differ from raw slice", p[0], p[1], len(got))
		}
	}
	after := core.RangeStats()
	if after["range_fast"]-before["range_fast"] == 0 {
		t.Error("no range read took the indexed fast path")
	}
	snap := b.StatsSnapshot()
	if snap["get_ranges"] != int64(len(probes)) {
		t.Fatalf("snapshot get_ranges = %d", snap["get_ranges"])
	}
	if _, ok := snap["range_fast"]; !ok {
		t.Fatalf("snapshot missing range_fast counter: %v", snap)
	}

	// Unknown chunk: StatusNotFound, surfaced as RemoteError.NotFound.
	var missing [32]byte
	_, err = cl.GetRange(ctx, missing, 0, 16)
	var re *server.RemoteError
	if !errors.As(err, &re) || !re.NotFound {
		t.Fatalf("missing chunk: got %v, want RemoteError with NotFound", err)
	}

	// Malformed request body: deterministic rejection, connection stays up.
	if _, err := oneShot(addr, server.OpGetRange, h[:], 5*time.Second); err == nil {
		t.Fatal("expected error for short get-range request")
	}
	if _, err := cl.GetRange(ctx, h, -1, 16); err == nil {
		t.Fatal("expected client-side rejection of negative offset")
	}
	if got, err := cl.GetRange(ctx, h, 0, 32); err != nil || !bytes.Equal(got, raw[:32]) {
		t.Fatalf("connection unusable after rejected requests: %v", err)
	}
}

// TestGetRangeFallbackContainer stores a chunk the fast path cannot index
// (a raw-mode container) and checks OpGetRange still serves exact slices.
func TestGetRangeFallbackContainer(t *testing.T) {
	st := store.New()
	b := &server.Blockserver{Store: st}
	addr := startServer(t, "tcp:127.0.0.1:0", b)

	blob := []byte("definitely not a jpeg, stored verbatim as a raw container ........")
	h := putTestChunk(t, addr, blob)

	cl, err := server.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	got, err := cl.GetRange(context.Background(), h, 11, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob[11:20]) {
		t.Fatalf("raw-container range = %q", got)
	}
}

// TestFleetGetRange places a chunk on one node of a two-node fleet and
// checks both read paths: the node-addressed GetRange (miss surfaces as
// store.ErrRemoteMiss, hit serves the slice) and the routed GetRangeAny,
// which must retry a NotFound on the other node instead of giving up.
func TestFleetGetRange(t *testing.T) {
	nodes := startTestFleet(t, 2)
	f := newTestFleet(t, nodes, nil)
	ctx := context.Background()

	raw := gen(t, 62, 200, 150)
	h := putTestChunk(t, nodes[0].addr, raw)

	// Node-addressed: the holding node serves, the other reports a miss.
	got, err := f.GetRange(ctx, nodes[0].addr, h, 5, 100)
	if err != nil || !bytes.Equal(got, raw[5:105]) {
		t.Fatalf("node-addressed GetRange: %v", err)
	}
	if _, err := f.GetRange(ctx, nodes[1].addr, h, 5, 100); !errors.Is(err, store.ErrRemoteMiss) {
		t.Fatalf("miss: got %v, want ErrRemoteMiss", err)
	}

	// Routed: whichever node load-routing picks first, a miss there must be
	// retried on the other node. Sweep several offsets so both orderings
	// occur across the rng stream.
	for i := int64(0); i < 8; i++ {
		off := i * 997
		got, err := f.GetRangeAny(ctx, h, off, 64)
		if err != nil {
			t.Fatalf("GetRangeAny(off=%d): %v", off, err)
		}
		a, z := off, off+64
		if a > int64(len(raw)) {
			a = int64(len(raw))
		}
		if z > int64(len(raw)) {
			z = int64(len(raw))
		}
		if !bytes.Equal(got, raw[a:z]) {
			t.Fatalf("GetRangeAny(off=%d) mismatch", off)
		}
	}

	// A chunk no node holds: the routed read reports the miss after trying
	// everywhere.
	var missing [32]byte
	_, err = f.GetRangeAny(ctx, missing, 0, 16)
	var re *server.RemoteError
	if !errors.As(err, &re) || !re.NotFound {
		t.Fatalf("routed miss: got %v, want RemoteError with NotFound", err)
	}
}

// TestNodeStatsArePerNode routes range reads unevenly across a 3-node
// in-process fleet and checks that every node's range_* and
// coeff_window_* counters cover its own conversions only: each node's
// range_requests and range_fast equal its own get_ranges, and only nodes
// that converted something report a coefficient-window peak.
func TestNodeStatsArePerNode(t *testing.T) {
	nodes := startTestFleet(t, 3)
	f := newTestFleet(t, nodes, nil)
	ctx := context.Background()

	raw := gen(t, 64, 320, 240)
	res, err := core.NewCodec().EncodeCtx(ctx, raw, core.EncodeOptions{ForceSegments: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Nodes 0 and 1 admit the chunk (a verifying decode on each); node 2
	// converts nothing.
	var h store.Hash
	for _, nd := range nodes[:2] {
		if h, err = f.PutCompressed(ctx, nd.addr, res.Compressed); err != nil {
			t.Fatal(err)
		}
	}
	reads := []int{5, 2, 0}
	for i, n := range reads {
		for k := 0; k < n; k++ {
			off := int64(k) * 1500
			got, err := f.GetRange(ctx, nodes[i].addr, h, off, 700)
			if err != nil {
				t.Fatalf("node %d GetRange(off=%d): %v", i, off, err)
			}
			if !bytes.Equal(got, raw[off:off+700]) {
				t.Fatalf("node %d GetRange(off=%d) mismatch", i, off)
			}
		}
	}
	for i, nd := range nodes {
		snap := nd.snapshot()
		if snap["get_ranges"] != int64(reads[i]) {
			t.Errorf("node %d: get_ranges = %d, want %d", i, snap["get_ranges"], reads[i])
		}
		if snap["range_requests"] != snap["get_ranges"] || snap["range_fast"] != snap["get_ranges"] {
			t.Errorf("node %d: range_requests = %d, range_fast = %d, want its own get_ranges %d",
				i, snap["range_requests"], snap["range_fast"], snap["get_ranges"])
		}
		if converted := i < 2; (snap["coeff_window_bytes_peak"] > 0) != converted {
			t.Errorf("node %d: coeff_window_bytes_peak = %d, ran conversions: %v",
				i, snap["coeff_window_bytes_peak"], converted)
		}
		if snap["coeff_window_bytes_in_use"] != 0 {
			t.Errorf("node %d: %d coefficient-window bytes still in use", i, snap["coeff_window_bytes_in_use"])
		}
	}
}

// TestRemoteStoreRange drives store.Remote.GetRange and GetFileRange over a
// live fleet: replica-ordered range reads, the whole-chunk local fallback
// accounting, and the chunk-arithmetic file ranges.
func TestRemoteStoreRange(t *testing.T) {
	nodes := startTestFleet(t, 3)
	f := newTestFleet(t, nodes, nil)
	r, err := store.NewRemote(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	r.ChunkSize = 32 << 10
	ctx := context.Background()

	data := gen(t, 63, 640, 480)
	ref, err := r.PutFile(ctx, data)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Chunks) < 2 {
		t.Fatalf("want a multi-chunk file, got %d chunks", len(ref.Chunks))
	}

	size := int64(len(data))
	for _, p := range [][2]int64{
		{0, 1}, {0, 4096}, {size / 2, 1024}, {size - 33, 33},
		{int64(r.ChunkSize) - 10, 20}, // straddles the first chunk boundary
		{0, size}, {size, 5}, {size / 3, 0},
	} {
		got, err := r.GetFileRange(ctx, ref, p[0], p[1])
		if err != nil {
			t.Fatalf("GetFileRange(off=%d n=%d): %v", p[0], p[1], err)
		}
		a, z := p[0], p[0]+p[1]
		if a > size {
			a = size
		}
		if z > size {
			z = size
		}
		if z < a {
			z = a
		}
		if !bytes.Equal(got, data[a:z]) {
			t.Fatalf("GetFileRange(off=%d n=%d) differs from file slice", p[0], p[1])
		}
	}
	c := r.StatsSnapshot()
	if c["range_gets"] == 0 {
		t.Fatal("no range gets counted")
	}
	if c["range_fallbacks"] != 0 {
		t.Fatalf("range reads over a range-capable fleet fell back %d times", c["range_fallbacks"])
	}

	// A mismatched chunk size must be refused, not silently misread.
	r.ChunkSize = 16 << 10
	if _, err := r.GetFileRange(ctx, ref, 0, 64); err == nil {
		t.Fatal("expected chunk-size mismatch error")
	}
	r.ChunkSize = 32 << 10

	// A transport without the range capability serves through the verified
	// whole-chunk fallback.
	r2, err := store.NewRemote(rangelessTransport{f}, 2)
	if err != nil {
		t.Fatal(err)
	}
	r2.ChunkSize = 32 << 10
	got, err := r2.GetRange(ctx, ref.Chunks[0], 100, 200)
	if err != nil || !bytes.Equal(got, data[100:300]) {
		t.Fatalf("rangeless transport fallback: %v", err)
	}
	if c2 := r2.StatsSnapshot(); c2["range_fallbacks"] != 1 {
		t.Fatalf("fallbacks = %d, want 1", c2["range_fallbacks"])
	}
}

// rangelessTransport hides the fleet's RangeTransport capability so the
// local-fallback path is reachable in tests.
type rangelessTransport struct{ f *server.Fleet }

func (rt rangelessTransport) Nodes() []string { return rt.f.Nodes() }
func (rt rangelessTransport) PutCompressed(ctx context.Context, addr string, cb []byte) (store.Hash, error) {
	return rt.f.PutCompressed(ctx, addr, cb)
}
func (rt rangelessTransport) GetCompressed(ctx context.Context, addr string, h store.Hash) ([]byte, error) {
	return rt.f.GetCompressed(ctx, addr, h)
}
