package backfill

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lepton/internal/diskstore"
	"lepton/internal/server"
	"lepton/internal/store"
)

// --- harness: real blockservers -------------------------------------------
//
// bfNode mirrors the PR-5 fleet fault harness: a real blockserver on
// loopback TCP whose kill() RSTs accepted connections and closes the
// listener (abortive teardown — the "machine died" signal), restartable on
// the same address.

type bfTracker struct {
	net.Listener
	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

func (tr *bfTracker) Accept() (net.Conn, error) {
	c, err := tr.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tr.mu.Lock()
	tr.conns[c] = struct{}{}
	tr.mu.Unlock()
	return c, nil
}

func (tr *bfTracker) abortAll() {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for c := range tr.conns {
		if tc, ok := c.(*net.TCPConn); ok {
			_ = tc.SetLinger(0)
		}
		_ = c.Close()
	}
}

type bfNode struct {
	addr  string
	mu    sync.Mutex
	b     *server.Blockserver
	tr    *bfTracker
	alive bool
}

func (n *bfNode) start(ln net.Listener) {
	tr := &bfTracker{Listener: ln, conns: map[net.Conn]struct{}{}}
	b := &server.Blockserver{Store: store.New(), Shards: 4}
	n.mu.Lock()
	n.b, n.tr, n.alive = b, tr, true
	n.mu.Unlock()
	go func() { _ = b.Serve(tr) }()
}

func (n *bfNode) kill() {
	n.mu.Lock()
	b, tr := n.b, n.tr
	n.alive = false
	n.mu.Unlock()
	tr.abortAll()
	_ = b.Close()
}

func (n *bfNode) restart(t *testing.T) {
	t.Helper()
	ln, err := net.Listen("tcp", n.addr[len("tcp:"):])
	if err != nil {
		t.Fatalf("restart %s: %v", n.addr, err)
	}
	n.start(ln)
}

func startBFNodes(t *testing.T, n int) []*bfNode {
	t.Helper()
	nodes := make([]*bfNode, n)
	for i := range nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		nd := &bfNode{addr: "tcp:" + ln.Addr().String()}
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

func bfFleet(t *testing.T, addrs []string) *server.Fleet {
	t.Helper()
	f, err := server.NewFleet(addrs, &server.FleetOptions{
		ProbeTimeout:   500 * time.Millisecond,
		HealthInterval: 25 * time.Millisecond,
		Seed:           42,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Close() })
	return f
}

// --- harness: protocol stubs ----------------------------------------------
//
// stubNode speaks just enough of the wire protocol for the engine: OpLoad
// answers with a settable in-flight depth (the injected "foreground load"),
// OpCompress sleeps an injectable latency and echoes. Killable and
// restartable like the real thing, but cheap enough for 100k files.

type stubNode struct {
	addr  string
	load  atomic.Uint32
	delay atomic.Int64 // injected latency, ns

	mu    sync.Mutex
	ln    net.Listener
	conns map[net.Conn]struct{}
	alive bool
}

func startStubNodes(t *testing.T, n int) []*stubNode {
	t.Helper()
	nodes := make([]*stubNode, n)
	for i := range nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		nd := &stubNode{addr: "tcp:" + ln.Addr().String()}
		nd.start(ln)
		nodes[i] = nd
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.mu.Lock()
			if nd.alive {
				_ = nd.ln.Close()
				for c := range nd.conns {
					_ = c.Close()
				}
			}
			nd.mu.Unlock()
		}
	})
	return nodes
}

func (s *stubNode) start(ln net.Listener) {
	s.mu.Lock()
	s.ln = ln
	s.conns = map[net.Conn]struct{}{}
	s.alive = true
	s.mu.Unlock()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			ok := s.alive
			if ok {
				s.conns[conn] = struct{}{}
			}
			s.mu.Unlock()
			if !ok {
				_ = conn.Close()
				return
			}
			go s.serve(conn)
		}
	}()
}

func (s *stubNode) serve(conn net.Conn) {
	defer conn.Close()
	for {
		op, payload, err := server.ReadRequest(conn, nil)
		if err != nil {
			return
		}
		switch op {
		case server.OpLoad:
			var resp [4]byte
			binary.LittleEndian.PutUint32(resp[:], s.load.Load())
			if server.WriteResponse(conn, server.StatusOK, resp[:]) != nil {
				return
			}
		default:
			if d := s.delay.Load(); d > 0 {
				time.Sleep(time.Duration(d))
			}
			if server.WriteResponse(conn, server.StatusOK, payload) != nil {
				return
			}
		}
	}
}

func (s *stubNode) kill() {
	s.mu.Lock()
	s.alive = false
	ln, conns := s.ln, s.conns
	s.conns = map[net.Conn]struct{}{}
	s.mu.Unlock()
	_ = ln.Close()
	for c := range conns {
		if tc, ok := c.(*net.TCPConn); ok {
			_ = tc.SetLinger(0)
		}
		_ = c.Close()
	}
}

func (s *stubNode) restart(t *testing.T) {
	t.Helper()
	ln, err := net.Listen("tcp", s.addr[len("tcp:"):])
	if err != nil {
		t.Fatalf("restart stub %s: %v", s.addr, err)
	}
	s.start(ln)
}

// cheapSource fabricates deterministic non-JPEG payloads: enough for echo
// stubs, and ~free at 100k-file scale.
func cheapSource() Source {
	return FuncSource(func(_ context.Context, e Entry) ([]byte, error) {
		n := 64 + int(e.ID%7)*37
		b := make([]byte, n)
		binary.LittleEndian.PutUint64(b, e.ID)
		binary.LittleEndian.PutUint64(b[8:], uint64(e.Seed))
		return b, nil
	})
}

// --- tests -----------------------------------------------------------------

// TestEngineCompletesWithVerify runs a small end-to-end backfill against
// real blockservers with verify-before-commit on: every file must commit,
// actually compress, and checkpoint.
func TestEngineCompletesWithVerify(t *testing.T) {
	nodes := startBFNodes(t, 2)
	f := bfFleet(t, []string{nodes[0].addr, nodes[1].addr})
	cs, err := diskstore.Open(t.TempDir(), diskstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()

	const n = 40
	m := Synthetic(101, n)
	eng, err := New(Config{
		Verify:          true,
		CheckpointEvery: 20 * time.Millisecond,
		YieldPoll:       -1,
		Logf:            t.Logf,
	}, f, &SyntheticSource{CacheCap: n}, cs, m)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || res.TotalFiles != n || len(res.Quarantined) != 0 {
		t.Fatalf("bad result: %+v", res)
	}
	if res.TotalOut == 0 || res.TotalOut >= res.TotalIn {
		t.Fatalf("no compression: in=%d out=%d", res.TotalIn, res.TotalOut)
	}
	if res.Checkpoints == 0 {
		t.Fatal("no checkpoints cut")
	}
	// The final checkpoint must reflect completion.
	ck, ok, err := LoadCheckpoint(cs, m, 0, 1)
	if err != nil || !ok || ck.Cursor != n || ck.FilesDone != n {
		t.Fatalf("final checkpoint wrong: ok=%v err=%v ck=%+v", ok, err, ck)
	}
}

// TestEngineQuarantine: a file whose source fails and a file no node can
// ever accept (over the protocol payload limit) must both land on the
// quarantine list — and stay there across a resume — while every other
// file completes. (A merely malformed image is NOT quarantined: the
// blockserver stores unsupported inputs via the raw-container fallback,
// which round-trips and commits like any other file.)
func TestEngineQuarantine(t *testing.T) {
	nodes := startBFNodes(t, 2)
	f := bfFleet(t, []string{nodes[0].addr, nodes[1].addr})
	cs, err := diskstore.Open(t.TempDir(), diskstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()

	const n = 24
	m := Synthetic(77, n)
	gen := &SyntheticSource{CacheCap: n}
	src := FuncSource(func(ctx context.Context, e Entry) ([]byte, error) {
		switch e.ID {
		case 3:
			return nil, fmt.Errorf("blob store lost file %d", e.ID)
		case 7:
			return make([]byte, 9<<20), nil // over the 8 MiB wire cap
		}
		return gen.Fetch(ctx, e)
	})
	cfg := Config{Verify: true, YieldPoll: -1, Logf: t.Logf}
	eng, err := New(cfg, f, src, cs, m)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || res.TotalFiles != n-2 {
		t.Fatalf("bad result: %+v", res)
	}
	if len(res.Quarantined) != 2 || res.Quarantined[0] != 3 || res.Quarantined[1] != 7 {
		t.Fatalf("quarantine list = %v, want [3 7]", res.Quarantined)
	}

	// A resumed engine must see the whole run as already handled — no
	// retry of quarantined files, no recount of committed ones.
	eng2, err := New(cfg, f, src, cs, m)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := eng2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Resumed || res2.Files != 0 || res2.TotalFiles != n-2 || len(res2.Quarantined) != 2 {
		t.Fatalf("resume after quarantine: %+v", res2)
	}
}

// TestEngineKillResume is the crash-resume acceptance test: a backfill
// under node fault injection is crashed mid-run (checkpoint store torn
// down first, so not even a graceful final checkpoint lands) and resumed.
// Checkpoint progress must be monotone, no acknowledged file may be lost
// or double-counted, and duplicate work must stay bounded.
func TestEngineKillResume(t *testing.T) {
	nodes := startBFNodes(t, 3)
	f := bfFleet(t, []string{nodes[0].addr, nodes[1].addr, nodes[2].addr})
	dir := t.TempDir()
	cs, err := diskstore.Open(dir, diskstore.Options{})
	if err != nil {
		t.Fatal(err)
	}

	const n = 160
	m := Synthetic(5, n)
	src := &SyntheticSource{CacheCap: n}
	cfg := Config{
		Verify:          true,
		CheckpointEvery: 15 * time.Millisecond,
		CheckpointFiles: 24,
		MaxAhead:        48,
		YieldPoll:       -1,
		Logf:            t.Logf,
	}
	eng, err := New(cfg, f, src, cs, m)
	if err != nil {
		t.Fatal(err)
	}

	runCtx, crash := context.WithCancel(context.Background())
	defer crash()
	type runOut struct {
		res Result
		err error
	}
	done := make(chan runOut, 1)
	go func() {
		res, err := eng.Run(runCtx)
		done <- runOut{res, err}
	}()

	// Watch checkpoints as they land: sequence and cursor must be monotone.
	var lastSeq, lastCursor, lastFiles uint64
	observe := func() {
		ck, ok, err := LoadCheckpoint(cs, m, 0, 1)
		if err != nil || !ok {
			return
		}
		if ck.Seq < lastSeq || ck.Cursor < lastCursor || ck.FilesDone < lastFiles {
			t.Errorf("checkpoint regressed: seq %d→%d cursor %d→%d files %d→%d",
				lastSeq, ck.Seq, lastCursor, ck.Cursor, lastFiles, ck.FilesDone)
		}
		lastSeq, lastCursor, lastFiles = ck.Seq, ck.Cursor, ck.FilesDone
	}

	// Let it make real progress, injecting a node kill along the way.
	killed := false
	deadline := time.Now().Add(30 * time.Second)
	for {
		observe()
		st := eng.Stats()
		if !killed && st["total_files"] >= n/8 {
			nodes[1].kill()
			killed = true
		}
		if st["total_files"] >= n/3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("backfill made no progress")
		}
		time.Sleep(5 * time.Millisecond)
	}
	observe()

	// Crash: the checkpoint store dies first (so the engine's shutdown
	// checkpoint fails like a real power cut), then the engine is killed.
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	crash()
	out := <-done
	run1 := out.res
	t.Logf("run 1: files=%d retries=%d checkpoints=%d complete=%v err=%v",
		run1.Files, run1.Retries, run1.Checkpoints, run1.Complete, out.err)

	// Restart the dead node and the store; resume.
	nodes[1].restart(t)
	cs2, err := diskstore.Open(dir, diskstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cs2.Close()
	ck, ok, err := LoadCheckpoint(cs2, m, 0, 1)
	if err != nil || !ok {
		t.Fatalf("no checkpoint survived the crash: ok=%v err=%v", ok, err)
	}
	if ck.Seq < lastSeq || ck.Cursor < lastCursor || ck.FilesDone < lastFiles {
		t.Fatalf("recovered checkpoint older than one observed live: %+v (saw seq %d cursor %d files %d)",
			ck, lastSeq, lastCursor, lastFiles)
	}

	eng2, err := New(cfg, f, src, cs2, m)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := eng2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Resumed {
		t.Fatal("second run did not resume from the checkpoint")
	}
	if !res2.Complete {
		t.Fatalf("resumed run did not finish: %+v", res2)
	}
	// Zero lost acknowledged files AND zero double-counted ones: the
	// cumulative commit count lands exactly on the manifest size.
	if res2.TotalFiles != n || len(res2.Quarantined) != 0 {
		t.Fatalf("acknowledged-file accounting off: total=%d quarantined=%v (want %d, none)",
			res2.TotalFiles, res2.Quarantined, n)
	}
	// Bounded duplicate work: only files committed after the last durable
	// checkpoint (≤ kick threshold + a checkpoint interval of commits)
	// plus in-flight work may be re-done.
	dups := int64(run1.Files) + int64(res2.Files) - n
	if dups < 0 {
		t.Fatalf("lost work: runs committed %d+%d < %d", run1.Files, res2.Files, n)
	}
	bound := int64(cfg.CheckpointFiles + cfg.MaxAhead + 16)
	if dups > bound {
		t.Fatalf("duplicate work %d exceeds bound %d", dups, bound)
	}
}

// TestEngineYieldsToForeground covers live-traffic priority: when a node
// advertises foreground in-flight depth, the engine must first shrink its
// window, then pause outright, and resume once the node is quiet.
func TestEngineYieldsToForeground(t *testing.T) {
	stubs := startStubNodes(t, 1)
	f := bfFleet(t, []string{stubs[0].addr})

	cs, err := diskstore.Open(t.TempDir(), diskstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()

	const n = 200000 // big enough that it cannot finish before the phases run
	m := Synthetic(9, n)
	eng, err := New(Config{
		WindowCap: 16,
		YieldPoll: 5 * time.Millisecond,
		YieldLow:  2,
		YieldHigh: 30,
		Logf:      t.Logf,
	}, f, cheapSource(), cs, m)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan Result, 1)
	go func() {
		res, _ := eng.Run(ctx)
		done <- res
	}()

	waitProgress := func(min int64, what string) {
		deadline := time.Now().Add(20 * time.Second)
		for eng.Stats()["total_files"] < min {
			if time.Now().After(deadline) {
				t.Fatalf("timeout waiting for %s (stats %v)", what, eng.Stats())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitProgress(100, "initial progress")

	// Phase 1: moderate foreground load → the shrink branch must fire and
	// hold the window at/near the floor while load persists.
	stubs[0].load.Store(10)
	deadline := time.Now().Add(10 * time.Second)
	for eng.Stats()["yield_shrinks"] == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no yield shrink under moderate load: %v", eng.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Phase 2: heavy foreground load → pause; progress must stall.
	stubs[0].load.Store(100)
	deadline = time.Now().Add(10 * time.Second)
	for {
		st := eng.Stats()
		if st["yield_pauses"] > 0 && st["node0_paused"] == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no pause under heavy load: %v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// With the lane paused and in-flight drained, commits must stop.
	time.Sleep(30 * time.Millisecond) // drain
	before := eng.Stats()["total_files"]
	time.Sleep(100 * time.Millisecond)
	after := eng.Stats()["total_files"]
	if after != before {
		t.Fatalf("paused backfill still committed: %d → %d", before, after)
	}

	// Phase 3: load clears → backfill resumes.
	stubs[0].load.Store(0)
	waitProgress(before+50, "resume after yield")
	cancel()
	<-done
}

// TestEngineSustainsScale is the scale acceptance test: a 4-node fleet, a
// 100k-file manifest, injected per-request latency, two node kills (with
// restarts), and a burst of foreground load mid-run. The run must complete
// with exact accounting, monotone checkpoints, and visible yielding.
func TestEngineSustainsScale(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-file scale test; skipped with -short")
	}
	stubs := startStubNodes(t, 4)
	addrs := make([]string, len(stubs))
	for i, s := range stubs {
		addrs[i] = s.addr
		s.delay.Store(int64(500 * time.Microsecond)) // injected latency
	}
	f := bfFleet(t, addrs)
	cs, err := diskstore.Open(t.TempDir(), diskstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()

	const n = 100_000
	m := Synthetic(1234, n)
	cfg := Config{
		WindowCap:       32,
		MaxAhead:        4096,
		CheckpointEvery: 50 * time.Millisecond,
		CheckpointFiles: 4096,
		YieldPoll:       10 * time.Millisecond,
		YieldLow:        4,
		YieldHigh:       40,
		Logf:            t.Logf,
	}
	eng, err := New(cfg, f, cheapSource(), cs, m)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan Result, 1)
	go func() {
		res, err := eng.Run(context.Background())
		if err != nil {
			t.Errorf("run: %v", err)
		}
		done <- res
	}()

	var lastSeq, lastCursor uint64
	observe := func() {
		ck, ok, err := LoadCheckpoint(cs, m, 0, 1)
		if err != nil || !ok {
			return
		}
		if ck.Seq < lastSeq || ck.Cursor < lastCursor {
			t.Errorf("checkpoint regressed: seq %d→%d cursor %d→%d", lastSeq, ck.Seq, lastCursor, ck.Cursor)
		}
		lastSeq, lastCursor = ck.Seq, ck.Cursor
	}
	progress := func(min int64, what string) {
		deadline := time.Now().Add(120 * time.Second)
		for eng.Stats()["total_files"] < min {
			observe()
			if time.Now().After(deadline) {
				t.Fatalf("stalled before %s: %v", what, eng.Stats())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Fault schedule: kill node 1 early, node 3 later, restart both;
	// meanwhile node 0 sees a foreground burst it must yield to.
	progress(n/10, "first kill")
	stubs[1].kill()
	progress(n/4, "foreground burst")
	stubs[0].load.Store(60)
	burstStart := time.Now()
	for eng.Stats()["yield_shrinks"]+eng.Stats()["yield_pauses"] == 0 {
		observe()
		if time.Since(burstStart) > 30*time.Second {
			t.Fatalf("no yield reaction to foreground burst: %v", eng.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	stubs[0].load.Store(0)
	progress(n/2, "second kill")
	stubs[3].kill()
	stubs[1].restart(t)
	progress(3*n/4, "final restart")
	stubs[3].restart(t)

	res := <-done
	observe()
	if !res.Complete || res.TotalFiles != n || len(res.Quarantined) != 0 {
		t.Fatalf("scale run accounting off: %+v", res)
	}
	if res.YieldShrinks+res.YieldPauses == 0 {
		t.Fatal("no yielding recorded despite foreground burst")
	}
	if res.Checkpoints == 0 || lastSeq == 0 {
		t.Fatal("no checkpoints observed")
	}
	t.Logf("scale run: files=%d dup-retries=%d checkpoints=%d shrinks=%d pauses=%d",
		res.Files, res.Retries, res.Checkpoints, res.YieldShrinks, res.YieldPauses)
}
