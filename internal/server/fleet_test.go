package server_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"lepton/internal/chunk"
	"lepton/internal/core"
	"lepton/internal/server"
	"lepton/internal/store"
)

// --- in-process multi-node harness ---------------------------------------
//
// startTestFleet spins N real blockservers on loopback TCP, each with its
// own chunk store, and hands back kill/restart controls. kill() is the
// fault injector: it RSTs every accepted connection (SetLinger(0) before
// Close turns the teardown abortive, the genuine "machine died" signal)
// and closes the listener, exactly the failure the router must survive.

// connTracker records the connections a listener accepts so kill() can
// abort them mid-request.
type connTracker struct {
	net.Listener
	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

func (ct *connTracker) Accept() (net.Conn, error) {
	c, err := ct.Listener.Accept()
	if err != nil {
		return nil, err
	}
	ct.mu.Lock()
	ct.conns[c] = struct{}{}
	ct.mu.Unlock()
	return c, nil
}

// abortAll RSTs every accepted connection: linger 0 discards unsent data
// and sends a reset instead of a FIN.
func (ct *connTracker) abortAll() {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	for c := range ct.conns {
		if tc, ok := c.(*net.TCPConn); ok {
			_ = tc.SetLinger(0)
		}
		_ = c.Close()
	}
}

// testNode is one fleet member under test control.
type testNode struct {
	addr string // "tcp:127.0.0.1:<port>", stable across restarts
	st   *store.Store
	// dataDir, when set, marks a disk-backed node: kill() closes the
	// store's backend with the node, and restart() reopens the same
	// directory — a machine rebooting against its disk.
	dataDir      string
	syncInterval time.Duration
	mu           sync.Mutex
	b            *server.Blockserver
	tr           *connTracker
	alive        bool
}

func (n *testNode) snapshot() map[string]int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.b.StatsSnapshot()
}

// kill hard-stops the node: in-flight connections are RST, the listener
// closes, running conversions are cancelled.
func (n *testNode) kill() {
	n.mu.Lock()
	b, tr := n.b, n.tr
	n.alive = false
	n.mu.Unlock()
	tr.abortAll()
	_ = b.Close()
	if n.dataDir != "" {
		// The process dies, the disk stays: requests racing the kill see
		// the backend closed and fail, exactly like a crashing machine's.
		_ = n.st.Close()
	}
}

// restart brings the node back on the same address with the same store —
// a machine rebooting with its disk intact. A disk-backed node reopens its
// data dir, replaying the segment logs into a fresh index.
func (n *testNode) restart(t *testing.T) {
	t.Helper()
	if n.dataDir != "" {
		n.st = newDiskNodeStore(t, n.dataDir, n.syncInterval)
	}
	ln, err := net.Listen("tcp", trimScheme(n.addr))
	if err != nil {
		t.Fatalf("restart %s: %v", n.addr, err)
	}
	n.start(ln)
}

func (n *testNode) start(ln net.Listener) {
	tr := &connTracker{Listener: ln, conns: map[net.Conn]struct{}{}}
	b := &server.Blockserver{Store: n.st, Shards: 4}
	n.mu.Lock()
	n.b = b
	n.tr = tr
	n.alive = true
	n.mu.Unlock()
	go func() { _ = b.Serve(tr) }()
}

func trimScheme(addr string) string { return addr[len("tcp:"):] }

// startTestFleet starts n blockservers on loopback, each with a 32-KiB
// chunk store, and registers cleanup.
func startTestFleet(t *testing.T, n int) []*testNode {
	t.Helper()
	nodes := make([]*testNode, n)
	for i := range nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		st := store.New()
		st.ChunkSize = 32 << 10
		nd := &testNode{addr: "tcp:" + ln.Addr().String(), st: st}
		nd.start(ln)
		nodes[i] = nd
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.mu.Lock()
			b, alive := nd.b, nd.alive
			nd.mu.Unlock()
			if alive {
				_ = b.Close()
			}
		}
	})
	return nodes
}

func fleetAddrs(nodes []*testNode) []string {
	addrs := make([]string, len(nodes))
	for i, nd := range nodes {
		addrs[i] = nd.addr
	}
	return addrs
}

// newTestFleet builds a router over the harness nodes with probing and
// health tuned for loopback tests.
func newTestFleet(t *testing.T, nodes []*testNode, opts *server.FleetOptions) *server.Fleet {
	t.Helper()
	if opts == nil {
		opts = &server.FleetOptions{}
	}
	if opts.ProbeTimeout == 0 {
		opts.ProbeTimeout = 500 * time.Millisecond
	}
	if opts.HealthInterval == 0 {
		opts.HealthInterval = 25 * time.Millisecond
	}
	if opts.Seed == 0 {
		opts.Seed = 42
	}
	opts.Logf = t.Logf
	f, err := server.NewFleet(fleetAddrs(nodes), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Close() })
	return f
}

// fleetCorpus is a small Figure-2-style corpus: a spread of synthetic
// baseline JPEGs across sizes, shared by the fleet tests.
func fleetCorpus(t *testing.T, n int) [][]byte {
	t.Helper()
	corpus := make([][]byte, n)
	for i := range corpus {
		corpus[i] = gen(t, int64(700+i), 96+16*(i%4), 72+12*(i%3))
	}
	return corpus
}

// --- e2e: concurrent roundtrips spread across live nodes ------------------

// TestFleetConcurrentRoundtrips pushes 64 concurrent compress+decompress
// roundtrips from the corpus through a 4-node fleet: every roundtrip must
// be byte-identical, and StatsSnapshot must show the work spread across
// every node.
func TestFleetConcurrentRoundtrips(t *testing.T) {
	nodes := startTestFleet(t, 4)
	f := newTestFleet(t, nodes, nil)
	corpus := fleetCorpus(t, 6)

	const workers = 64
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data := corpus[i%len(corpus)]
			ctx := context.Background()
			comp, err := f.Compress(ctx, data)
			if err != nil {
				errs <- fmt.Errorf("worker %d compress: %w", i, err)
				return
			}
			back, err := f.Decompress(ctx, comp)
			if err != nil {
				errs <- fmt.Errorf("worker %d decompress: %w", i, err)
				return
			}
			if !bytes.Equal(back, data) {
				errs <- fmt.Errorf("worker %d: roundtrip not byte-identical", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	var total int64
	for i, nd := range nodes {
		snap := nd.snapshot()
		work := snap["compresses"] + snap["decompresses"]
		if work == 0 {
			t.Errorf("node %d saw no conversions; load did not spread: %v", i, snap)
		}
		total += work
	}
	if total < 2*workers {
		t.Fatalf("fleet served %d conversions, want >= %d", total, 2*workers)
	}
	snap := f.StatsSnapshot()
	if snap["requests"] < 2*workers {
		t.Fatalf("router snapshot undercounts requests: %v", snap)
	}
	// Under -race-grade CPU saturation the health loop may transiently
	// mark a slow-to-probe node down; once the load drains, every node
	// must converge back to healthy.
	waitFor(t, 10*time.Second, func() bool {
		s := f.StatsSnapshot()
		return s["nodes_up"] == 4 && s["nodes_down"] == 0
	}, "all nodes healthy after the load drains")
}

// --- fault injection: node killed mid-traffic -----------------------------

// TestFleetSurvivesNodeKillMidTraffic is the acceptance test: a 4-node
// fleet serving 64 concurrent workers has one node hard-killed (listener
// closed, in-flight connections RST) mid-traffic. Every roundtrip must
// still succeed byte-identically — the router retries transport failures
// on surviving nodes — and the dead node must be evicted.
func TestFleetSurvivesNodeKillMidTraffic(t *testing.T) {
	nodes := startTestFleet(t, 4)
	f := newTestFleet(t, nodes, nil)
	corpus := fleetCorpus(t, 6)

	const workers = 64
	const roundsPerWorker = 3
	var started sync.WaitGroup
	started.Add(workers)
	var wg sync.WaitGroup
	errs := make(chan error, workers*roundsPerWorker)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			first := true
			for r := 0; r < roundsPerWorker; r++ {
				data := corpus[(i+r)%len(corpus)]
				ctx := context.Background()
				comp, err := f.Compress(ctx, data)
				if first {
					// Signal after the first request is in flight so the
					// kill lands mid-traffic.
					started.Done()
					first = false
				}
				if err != nil {
					errs <- fmt.Errorf("worker %d round %d compress: %w", i, r, err)
					return
				}
				back, err := f.Decompress(ctx, comp)
				if err != nil {
					errs <- fmt.Errorf("worker %d round %d decompress: %w", i, r, err)
					return
				}
				if !bytes.Equal(back, data) {
					errs <- fmt.Errorf("worker %d round %d: corrupted roundtrip", i, r)
					return
				}
			}
		}(i)
	}

	// Kill node 2 once every worker has traffic in flight.
	started.Wait()
	nodes[2].kill()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	waitFor(t, 10*time.Second, func() bool { return f.NodeDown(nodes[2].addr) },
		"dead node to be evicted")
	snap := f.StatsSnapshot()
	if snap["evictions"] == 0 {
		t.Fatalf("no eviction recorded after node kill: %v", snap)
	}
	if snap["nodes_down"] == 0 {
		t.Fatalf("killed node still reported up: %v", snap)
	}
	// The survivors carried the load.
	var surviving int64
	for i, nd := range nodes {
		if i == 2 {
			continue
		}
		s := nd.snapshot()
		surviving += s["compresses"] + s["decompresses"]
	}
	if surviving == 0 {
		t.Fatal("surviving nodes served nothing")
	}
}

// TestFleetNodeRejoinsAfterRestart kills a node, waits for eviction, brings
// it back on the same address, and requires the health loop to re-admit it
// and the router to send it traffic again.
func TestFleetNodeRejoinsAfterRestart(t *testing.T) {
	nodes := startTestFleet(t, 3)
	f := newTestFleet(t, nodes, nil)
	data := gen(t, 720, 128, 96)

	// Prove the fleet serves, then kill node 0.
	if _, err := f.Compress(context.Background(), data); err != nil {
		t.Fatal(err)
	}
	nodes[0].kill()
	waitFor(t, 10*time.Second, func() bool { return f.NodeDown(nodes[0].addr) },
		"killed node to be evicted")

	// The fleet still serves while degraded.
	comp, err := f.Compress(context.Background(), data)
	if err != nil {
		t.Fatalf("compress while degraded: %v", err)
	}

	// Restart on the same address; the health loop must re-admit it.
	nodes[0].restart(t)
	waitFor(t, 10*time.Second, func() bool { return !f.NodeDown(nodes[0].addr) },
		"restarted node to be readmitted")
	if f.StatsSnapshot()["readmissions"] == 0 {
		t.Fatal("no readmission recorded")
	}

	// Drive enough traffic that the rejoined node sees some of it.
	before := nodes[0].snapshot()["compresses"] + nodes[0].snapshot()["decompresses"]
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			back, err := f.Decompress(context.Background(), comp)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(back, data) {
				errs <- fmt.Errorf("roundtrip mismatch after rejoin")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	after := nodes[0].snapshot()["compresses"] + nodes[0].snapshot()["decompresses"]
	if after == before {
		t.Fatal("rejoined node received no traffic")
	}
}

// --- hedging --------------------------------------------------------------

// stubServer speaks the blockserver protocol with canned behavior: OpLoad
// answers immediately with a fixed load, every other op echoes its payload
// after a configurable delay. It lets the hedge test steer the router
// deterministically: the "attractive" node (load 0) is slow to serve, the
// "busy-looking" node (higher load) is fast.
type stubServer struct {
	load  uint32
	delay time.Duration
}

func startStubServer(t *testing.T, load uint32, delay time.Duration) (string, *stubServer) {
	t.Helper()
	s := &stubServer{load: load, delay: delay}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go s.serve(conn)
		}
	}()
	return "tcp:" + ln.Addr().String(), s
}

func (s *stubServer) serve(conn net.Conn) {
	defer conn.Close()
	for {
		op, payload, err := server.ReadRequest(conn)
		if err != nil {
			return
		}
		if op == server.OpLoad {
			var resp [4]byte
			binary.LittleEndian.PutUint32(resp[:], s.load)
			if server.WriteResponse(conn, server.StatusOK, resp[:]) != nil {
				return
			}
			continue
		}
		if s.delay > 0 {
			time.Sleep(s.delay)
		}
		if err := server.WriteResponse(conn, server.StatusOK, payload); err != nil {
			return
		}
	}
}

// TestFleetHedgesSlowNode routes through two stub nodes: the slow one
// advertises zero load (so power-of-two choices always picks it as the
// primary) and the fast one advertises a higher load. With HedgeAfter well
// under the slow node's delay, the hedged copy must win and the request
// must complete far sooner than the slow node would allow.
func TestFleetHedgesSlowNode(t *testing.T) {
	slowAddr, _ := startStubServer(t, 0, 3*time.Second)
	fastAddr, _ := startStubServer(t, 5, 0)

	f, err := server.NewFleet([]string{slowAddr, fastAddr}, &server.FleetOptions{
		ProbeTimeout:   500 * time.Millisecond,
		HedgeAfter:     50 * time.Millisecond,
		HealthInterval: -1, // probes via pick only; keep the test deterministic
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	payload := []byte("hedge-me")
	start := time.Now()
	resp, err := f.Do(context.Background(), server.OpCompress, payload)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, payload) {
		t.Fatal("stub echo mismatch")
	}
	if elapsed >= 2*time.Second {
		t.Fatalf("request took %v; hedge did not rescue it", elapsed)
	}
	snap := f.StatsSnapshot()
	if snap["hedged"] == 0 || snap["hedge_wins"] == 0 {
		t.Fatalf("hedging not recorded: %v", snap)
	}
}

// TestFleetRemoteErrorNotRetried: an application-level StatusError must be
// returned to the caller without burning retries on other nodes — the
// rejection is deterministic.
func TestFleetRemoteErrorNotRetried(t *testing.T) {
	nodes := startTestFleet(t, 3)
	f := newTestFleet(t, nodes, nil)
	// Garbage decompress payload: every node would reject it identically.
	_, err := f.Decompress(context.Background(), []byte("junk"))
	if err == nil {
		t.Fatal("garbage decompress succeeded")
	}
	if got := f.StatsSnapshot()["retries"]; got != 0 {
		t.Fatalf("deterministic rejection consumed %d retries", got)
	}
	// The fleet remains fully healthy — no eviction for an app error.
	if got := f.StatsSnapshot()["evictions"]; got != 0 {
		t.Fatalf("remote error evicted a node: %d evictions", got)
	}
}

// --- distributed chunk store over a real fleet ----------------------------

// TestRemoteStoreOverFleet is the distributed-store acceptance test: files
// chunked and replicated across a live 3-node fleet survive a node kill
// byte-identically, and chunks written while a node was down are
// read-repaired onto it after it rejoins.
func TestRemoteStoreOverFleet(t *testing.T) {
	nodes := startTestFleet(t, 3)
	f := newTestFleet(t, nodes, nil)
	r, err := store.NewRemote(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	r.ChunkSize = 8 << 10

	data := gen(t, 730, 512, 384) // several 8-KiB chunks
	ref, err := r.PutFile(context.Background(), data)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Chunks) < 2 {
		t.Fatalf("file produced %d chunks; want a multi-chunk file", len(ref.Chunks))
	}
	back, err := r.GetFile(context.Background(), ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("distributed file round trip mismatch")
	}

	// Kill one node: every chunk still has a replica elsewhere (R=2 of 3),
	// so the file must remain retrievable, byte-identical.
	nodes[1].kill()
	waitFor(t, 10*time.Second, func() bool { return f.NodeDown(nodes[1].addr) },
		"killed node to be evicted")
	back, err = r.GetFile(context.Background(), ref)
	if err != nil {
		t.Fatalf("get with one node down: %v", err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("degraded read not byte-identical")
	}

	// Bring the first casualty back before the read-repair phase.
	nodes[1].restart(t)
	waitFor(t, 10*time.Second, func() bool { return !f.NodeDown(nodes[1].addr) },
		"restarted node to be readmitted")

	// Read-repair, deterministically: compress the second file client-side
	// first (chunk output is byte-identical to what PutFile will produce),
	// find which node is the *first* replica of its first chunk, and kill
	// exactly that node before the put. After it rejoins, the first read of
	// that chunk must miss on it, serve from the second replica, and write
	// the chunk back.
	data2 := gen(t, 731, 384, 288)
	pre, err := chunk.CompressCtx(context.Background(), data2,
		chunk.Options{ChunkSize: r.ChunkSize, VerifyRoundtrip: true, Codec: core.NewCodec()})
	if err != nil {
		t.Fatal(err)
	}
	victim := r.Placement(sha256.Sum256(pre[0]))[0]
	var vnode *testNode
	for _, nd := range nodes {
		if nd.addr == victim {
			vnode = nd
		}
	}
	vnode.kill()
	waitFor(t, 10*time.Second, func() bool { return f.NodeDown(victim) },
		"victim node to be evicted")
	ref2, err := r.PutFile(context.Background(), data2)
	if err != nil {
		t.Fatalf("put while degraded: %v", err)
	}
	vnode.restart(t)
	waitFor(t, 10*time.Second, func() bool { return !f.NodeDown(victim) },
		"victim node to be readmitted")
	back2, err := r.GetFile(context.Background(), ref2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back2, data2) {
		t.Fatal("post-rejoin read mismatch")
	}
	if c := r.Counters(); c.ReadRepairs == 0 {
		t.Fatalf("first-replica miss did not read-repair: %+v", c)
	}
	// And the repaired replica really holds the chunk now: ask it directly.
	cb, err := f.GetCompressed(context.Background(), victim, ref2.Chunks[0])
	if err != nil {
		t.Fatalf("repaired node does not hold the chunk: %v", err)
	}
	if sha256.Sum256(cb) != ref2.Chunks[0] {
		t.Fatal("repaired replica holds wrong bytes")
	}
}

// TestFleetRetriesNodeLocalTimeouts: a node whose per-request timeout
// kills every conversion answers compressions in-band with StatusRetry —
// a node-local decline, not a verdict on the payload — and the router must
// retry those on the healthy nodes with zero client-visible failures and
// without evicting the declining node (its connection never failed).
// Compress-only traffic first, because a *decompress* that times out
// mid-stream cannot be declined in-band (the response header already went
// out): the server tears the connection down, which rightly looks like a
// transport failure and may evict — exercised in the second phase, where
// the roundtrips must still all succeed.
func TestFleetRetriesNodeLocalTimeouts(t *testing.T) {
	flaky := &server.Blockserver{RequestTimeout: time.Millisecond}
	flakyAddr := startServer(t, "tcp:127.0.0.1:0", flaky)
	healthy := startTestFleet(t, 2)

	f, err := server.NewFleet(append([]string{flakyAddr}, fleetAddrs(healthy)...),
		&server.FleetOptions{ProbeTimeout: 500 * time.Millisecond, HealthInterval: -1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	data := gen(t, 760, 128, 96)
	var comps [][]byte
	for i := 0; i < 12; i++ {
		comp, err := f.Compress(context.Background(), data)
		if err != nil {
			t.Fatalf("compress %d through a fleet with one timing-out node: %v", i, err)
		}
		comps = append(comps, comp)
	}
	snap := f.StatsSnapshot()
	if flaky.Stats.Cancelled.Load() > 0 && snap["retries"] == 0 {
		t.Fatalf("flaky node declined conversions but nothing was retried: %v", snap)
	}
	if snap["evictions"] != 0 {
		t.Fatalf("in-band compress declines evicted a node: %v", snap)
	}
	for i, comp := range comps {
		back, err := f.Decompress(context.Background(), comp)
		if err != nil {
			t.Fatalf("decompress %d: %v", i, err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("roundtrip %d mismatch", i)
		}
	}
}

// TestFleetGetCompressedMissClassification: only the server's "unknown
// chunk" answer is a read-repairable miss; a node rejecting store ops
// outright (no -store) must not be classified as missing the chunk, or
// every read would flood it with futile repair writes.
func TestFleetGetCompressedMissClassification(t *testing.T) {
	withStore := startTestFleet(t, 1)[0]
	noStore := &server.Blockserver{} // no Store configured
	noStoreAddr := startServer(t, "tcp:127.0.0.1:0", noStore)

	f, err := server.NewFleet([]string{withStore.addr, noStoreAddr}, &server.FleetOptions{
		ProbeTimeout: 500 * time.Millisecond, HealthInterval: -1, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	var h store.Hash
	h[0] = 0xAB
	_, err = f.GetCompressed(context.Background(), withStore.addr, h)
	if !errors.Is(err, store.ErrRemoteMiss) {
		t.Fatalf("unknown chunk on a store node: err = %v, want ErrRemoteMiss", err)
	}
	_, err = f.GetCompressed(context.Background(), noStoreAddr, h)
	if err == nil || errors.Is(err, store.ErrRemoteMiss) {
		t.Fatalf("store-less node classified as a miss: %v", err)
	}
}

// TestFleetStoreConcurrentClients drives the distributed store from many
// goroutines at once — puts and gets interleaved — as the race job's
// workout for the placement, pooling, and repair paths.
func TestFleetStoreConcurrentClients(t *testing.T) {
	nodes := startTestFleet(t, 3)
	f := newTestFleet(t, nodes, nil)
	r, err := store.NewRemote(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	r.ChunkSize = 32 << 10

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data := gen(t, int64(740+i), 160+16*(i%3), 120)
			ref, err := r.PutFile(context.Background(), data)
			if err != nil {
				errs <- fmt.Errorf("worker %d put: %w", i, err)
				return
			}
			for k := 0; k < 3; k++ {
				back, err := r.GetFile(context.Background(), ref)
				if err != nil {
					errs <- fmt.Errorf("worker %d get %d: %w", i, k, err)
					return
				}
				if !bytes.Equal(back, data) {
					errs <- fmt.Errorf("worker %d get %d: mismatch", i, k)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
