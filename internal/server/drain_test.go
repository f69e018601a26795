package server_test

import (
	"bytes"
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"lepton/internal/server"
)

// bigJPEG returns an input whose conversion takes long enough to overlap
// with a drain or a disconnect (hundreds of milliseconds of encode) while
// staying inside the decode memory budget at any chroma subsampling the
// generator picks.
func bigJPEG(t testing.TB, seed int64) []byte {
	t.Helper()
	return gen(t, seed, 2048, 1536)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// settledSnapshot polls the stats snapshot until cond holds. The in-flight
// gauge and the per-shard done counters settle just after the reply is
// written, so a client that has its response may read them one update
// early.
func settledSnapshot(t *testing.T, b *server.Blockserver, what string, cond func(map[string]int64) bool) map[string]int64 {
	t.Helper()
	var snap map[string]int64
	waitFor(t, 10*time.Second, func() bool {
		snap = b.StatsSnapshot()
		return cond(snap)
	}, what)
	return snap
}

// TestShutdownDrainsInFlight is the drain acceptance test: a request in
// flight when Shutdown begins completes with a valid response, the drain
// reports clean, and new connections are refused afterwards.
func TestShutdownDrainsInFlight(t *testing.T) {
	b := &server.Blockserver{}
	addr := startServer(t, "tcp:127.0.0.1:0", b)
	data := bigJPEG(t, 400)

	type result struct {
		comp []byte
		err  error
	}
	res := make(chan result, 1)
	go func() {
		comp, err := oneShot(addr, server.OpCompress, data, 60*time.Second)
		res <- result{comp, err}
	}()
	waitFor(t, 10*time.Second, func() bool { return b.InFlight() > 0 }, "request to start")

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := b.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown during drainable load: %v", err)
	}

	r := <-res
	if r.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", r.err)
	}
	back, err := decode(r.comp, 0)
	if err != nil || !bytes.Equal(back, data) {
		t.Fatalf("drained response undecodable: %v", err)
	}
	if got := b.StatsSnapshot()["cancelled"]; got != 0 {
		t.Fatalf("clean drain cancelled %d conversions", got)
	}

	// New connections must be refused now, and a belt-and-braces Close
	// after a clean Shutdown must not report a phantom listener error.
	if _, err := oneShot(addr, server.OpLoad, nil, 2*time.Second); err == nil {
		t.Fatal("request succeeded after Shutdown")
	}
	if err := b.Close(); err != nil {
		t.Fatalf("Close after clean Shutdown: %v", err)
	}
}

// TestShutdownClosesIdleConnections: a persistent client with no request in
// flight must not hold up the drain.
func TestShutdownClosesIdleConnections(t *testing.T) {
	b := &server.Blockserver{}
	addr := startServer(t, "tcp:127.0.0.1:0", b)
	cl, err := server.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Prove the connection is live, then leave it idle.
	if _, err := cl.Load(context.Background()); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	if err := b.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown blocked on an idle connection: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("drain of an idle server took %v", elapsed)
	}
}

// TestShutdownExpiredCtxForceCancels: when the drain deadline passes, the
// in-flight conversion's context is cancelled, Shutdown returns the ctx
// error promptly, and the server records the cancellation.
func TestShutdownExpiredCtxForceCancels(t *testing.T) {
	b := &server.Blockserver{}
	addr := startServer(t, "tcp:127.0.0.1:0", b)
	data := bigJPEG(t, 401)

	errc := make(chan error, 1)
	go func() {
		_, err := oneShot(addr, server.OpCompress, data, 60*time.Second)
		errc <- err
	}()
	waitFor(t, 10*time.Second, func() bool { return b.InFlight() > 0 }, "request to start")

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	err := b.Shutdown(ctx)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced Shutdown: err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("forced Shutdown took %v; stragglers not cancelled", elapsed)
	}
	if err := <-errc; err == nil {
		t.Fatal("force-cancelled request reported success")
	}
	if got := b.StatsSnapshot()["cancelled"]; got == 0 {
		t.Fatal("forced drain recorded no cancelled conversions")
	}
}

// TestPeerDisconnectCancelsConversion: an abortive client disconnect (RST)
// mid-conversion cancels the request context so the worker slot frees
// before the encode would have finished.
func TestPeerDisconnectCancelsConversion(t *testing.T) {
	b := &server.Blockserver{}
	addr := startServer(t, "tcp:127.0.0.1:0", b)
	data := bigJPEG(t, 402)

	raw, err := net.Dial("tcp", strings.TrimPrefix(addr, "tcp:"))
	if err != nil {
		t.Fatal(err)
	}
	if err := server.WriteFrame(raw, server.OpCompress, data); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool { return b.InFlight() > 0 }, "request to start")

	// SetLinger(0) turns Close into an RST — the genuine "peer is gone"
	// signal (a plain FIN is indistinguishable from the one-shot protocol's
	// half-close and must not cancel).
	if err := raw.(*net.TCPConn).SetLinger(0); err != nil {
		t.Fatal(err)
	}
	if err := raw.Close(); err != nil {
		t.Fatal(err)
	}

	waitFor(t, 10*time.Second, func() bool { return b.StatsSnapshot()["cancelled"] > 0 },
		"conversion to be cancelled after disconnect")
	waitFor(t, 10*time.Second, func() bool { return b.InFlight() == 0 }, "worker slot to free")
}

// TestRequestTimeoutCancelsConversion: a per-request deadline aborts the
// conversion with a StatusError and leaves the connection usable.
func TestRequestTimeoutCancelsConversion(t *testing.T) {
	b := &server.Blockserver{RequestTimeout: 5 * time.Millisecond}
	addr := startServer(t, "tcp:127.0.0.1:0", b)
	data := bigJPEG(t, 403)

	cl, err := server.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Compress(context.Background(), data); err == nil {
		t.Fatal("compress succeeded despite a 5ms request timeout")
	}
	if got := b.StatsSnapshot()["cancelled"]; got == 0 {
		t.Fatal("request timeout recorded no cancellation")
	}
	// The error was reported in-band: the connection must still serve.
	if _, err := cl.Load(context.Background()); err != nil {
		t.Fatalf("connection unusable after request timeout: %v", err)
	}
}

// TestClientDoCtxCancelled: cancelling the client-side context interrupts
// the blocked exchange and closes the client.
func TestClientDoCtxCancelled(t *testing.T) {
	b := &server.Blockserver{}
	addr := startServer(t, "tcp:127.0.0.1:0", b)
	data := bigJPEG(t, 404)

	cl, err := server.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if _, err := cl.Compress(ctx, data); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled client exchange: err = %v, want context.Canceled", err)
	}
	// Mid-exchange cancellation means the stream position is unknown: the
	// client must refuse further use instead of desyncing.
	if _, err := cl.Load(context.Background()); err == nil {
		t.Fatal("client usable after mid-exchange cancellation")
	}
}

// TestServeAfterShutdownRefuses: Shutdown before Serve wins — Serve must
// not start accepting.
func TestServeAfterShutdownRefuses(t *testing.T) {
	b := &server.Blockserver{}
	if err := b.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Serve(ln); err != nil {
		t.Fatalf("Serve after Shutdown: %v", err)
	}
	if _, err := oneShot("tcp:"+ln.Addr().String(), server.OpLoad, nil, time.Second); err == nil {
		t.Fatal("request served after Shutdown")
	}
}
