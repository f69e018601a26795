package server_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"lepton/internal/core"
	"lepton/internal/imagegen"
	"lepton/internal/server"
	"lepton/internal/store"
)

func gen(t testing.TB, seed int64, w, h int) []byte {
	t.Helper()
	data, err := imagegen.Generate(seed, w, h)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// encode and decode convert locally on a fresh codec, the reference the
// server's responses are checked against.
func encode(data []byte, opt core.EncodeOptions) (*core.Result, error) {
	return core.NewCodec().EncodeCtx(context.Background(), data, opt)
}

func decode(comp []byte) ([]byte, error) {
	return core.NewCodec().DecodeCtx(context.Background(), comp)
}

func startServer(t *testing.T, addr string, b *server.Blockserver) string {
	t.Helper()
	bound, err := server.ListenAndServe(addr, b)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return bound
}

// dial opens a persistent client, failing the test if it cannot.
func dial(t testing.TB, addr string) *server.Client {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	cl, err := server.DialContext(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// do performs one exchange on cl under a timeout.
func do(cl *server.Client, op byte, payload []byte, timeout time.Duration) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return cl.DoCtx(ctx, op, payload)
}

// oneShot performs one exchange on a fresh connection, dial included,
// under one timeout.
func oneShot(addr string, op byte, payload []byte, timeout time.Duration) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	cl, err := server.DialContext(ctx, addr)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	return cl.DoCtx(ctx, op, payload)
}

// wantRemote checks that err is an in-band *RemoteError of the given kind:
// notFound for StatusNotFound, otherwise a non-transient StatusError.
func wantRemote(t *testing.T, what string, err error, notFound bool) {
	t.Helper()
	var re *server.RemoteError
	if !errors.As(err, &re) || re.Transient || re.NotFound != notFound {
		t.Fatalf("%s: got %v, want a RemoteError with NotFound=%v, not transient", what, err, notFound)
	}
}

func TestUnixSocketCompressDecompress(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "lepton.sock")
	b := &server.Blockserver{}
	addr := startServer(t, "unix:"+sock, b)

	data := gen(t, 1, 256, 192)
	comp, err := oneShot(addr, server.OpCompress, data, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(comp) >= len(data) {
		t.Fatalf("no savings over socket: %d >= %d", len(comp), len(data))
	}
	back, err := oneShot(addr, server.OpDecompress, comp, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("socket round trip mismatch")
	}
	if st := b.StatsSnapshot(); st["compresses"] != 1 || st["decompresses"] != 1 {
		t.Fatalf("stats: compresses=%d decompresses=%d", st["compresses"], st["decompresses"])
	}
	snap := settledSnapshot(t, b, "in_flight to settle", func(s map[string]int64) bool { return s["in_flight"] == 0 })
	if snap["compresses"] != 1 || snap["decompresses"] != 1 {
		t.Fatalf("snapshot: %v", snap)
	}
	if snap["coeff_window_bytes_peak"] <= 0 {
		t.Fatalf("snapshot did not observe streamed coefficient windows: %v", snap)
	}
	if _, ok := snap["cancelled"]; !ok {
		t.Fatalf("snapshot missing cancelled counter: %v", snap)
	}
}

func TestTCPCompress(t *testing.T) {
	b := &server.Blockserver{}
	addr := startServer(t, "tcp:127.0.0.1:0", b)
	data := gen(t, 2, 128, 128)
	comp, err := oneShot(addr, server.OpCompress, data, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	back, err := decode(comp)
	if err != nil || !bytes.Equal(back, data) {
		t.Fatal("TCP compress result undecodable")
	}
}

func TestUnsupportedInputGetsRawContainer(t *testing.T) {
	b := &server.Blockserver{}
	addr := startServer(t, "tcp:127.0.0.1:0", b)
	payload := []byte("not a jpeg at all")
	comp, err := oneShot(addr, server.OpCompress, payload, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	back, err := decode(comp)
	if err != nil || !bytes.Equal(back, payload) {
		t.Fatal("raw fallback mismatch")
	}
}

func TestLoadProbe(t *testing.T) {
	b := &server.Blockserver{}
	addr := startServer(t, "tcp:127.0.0.1:0", b)
	resp, err := oneShot(addr, server.OpLoad, nil, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) != 4 {
		t.Fatalf("load response %d bytes", len(resp))
	}
}

// TestHalfCloseOneShotRequest: the deployed system's one-shot exchange —
// request written, write side shut down, response read to EOF — is still
// served.
func TestHalfCloseOneShotRequest(t *testing.T) {
	addr := startServer(t, "tcp:127.0.0.1:0", &server.Blockserver{})
	conn, err := net.Dial("tcp", addr[len("tcp:"):])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	data := gen(t, 8, 96, 64)
	if err := server.WriteFrame(conn, server.OpCompress, data); err != nil {
		t.Fatal(err)
	}
	// End of request, as the production protocol signaled it: "the file is
	// complete once the socket is shut down for writing".
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	status, comp, err := server.ReadResponse(conn)
	if err != nil || status != server.StatusOK {
		t.Fatalf("status %d, err %v", status, err)
	}
	if back, err := decode(comp); err != nil || !bytes.Equal(back, data) {
		t.Fatalf("round trip mismatch (%v)", err)
	}
	if _, _, err := server.ReadResponse(conn); !errors.Is(err, io.EOF) {
		t.Fatalf("server did not close after the half-closed request: %v", err)
	}
}

func TestConcurrentMixedLoad(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "bs.sock")
	b := &server.Blockserver{}
	addr := startServer(t, "unix:"+sock, b)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data := gen(t, int64(100+i), 96+8*i, 96)
			comp, err := oneShot(addr, server.OpCompress, data, 20*time.Second)
			if err != nil {
				errs <- fmt.Errorf("compress %d: %w", i, err)
				return
			}
			back, err := oneShot(addr, server.OpDecompress, comp, 20*time.Second)
			if err != nil {
				errs <- fmt.Errorf("decompress %d: %w", i, err)
				return
			}
			if !bytes.Equal(back, data) {
				errs <- fmt.Errorf("mismatch %d", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestBadAddress(t *testing.T) {
	if _, err := oneShot("bogus", server.OpLoad, nil, time.Second); err == nil {
		t.Fatal("expected address error")
	}
}

func TestStoreBackedOps(t *testing.T) {
	st := store.New()
	st.ChunkSize = 64 << 10
	b := &server.Blockserver{Store: st}
	addr := startServer(t, "tcp:127.0.0.1:0", b)

	raw := gen(t, 50, 200, 150)
	res, err := encode(raw, core.EncodeOptions{VerifyRoundtrip: true})
	if err != nil {
		t.Fatal(err)
	}
	h, err := oneShot(addr, server.OpPutChunkCompressed, res.Compressed, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if want := sha256.Sum256(res.Compressed); !bytes.Equal(h, want[:]) {
		t.Fatalf("put returned hash %x, want the SHA-256 of the chunk %x", h, want)
	}
	cb, err := oneShot(addr, server.OpGetChunkCompressed, h, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cb, res.Compressed) {
		t.Fatal("compressed chunk changed in store")
	}
	out, err := decode(cb)
	if err != nil || !bytes.Equal(out, raw) {
		t.Fatal("client-side decode mismatch")
	}
	// The range op decodes the stored chunk server-side.
	back, err := oneShot(addr, server.OpGetRange, rangeReq([32]byte(h), 0, uint32(len(raw))), 10*time.Second)
	if err != nil || !bytes.Equal(back, raw) {
		t.Fatalf("whole-chunk range read mismatch (%v)", err)
	}
}

func TestStoreOpsWithoutStore(t *testing.T) {
	b := &server.Blockserver{}
	addr := startServer(t, "tcp:127.0.0.1:0", b)
	_, err := oneShot(addr, server.OpPutChunkCompressed, []byte("x"), 5*time.Second)
	wantRemote(t, "put without a store", err, false)
	if !strings.Contains(err.Error(), "no store configured") {
		t.Fatalf("put without a store: %v", err)
	}
}

func TestPutCompressedRejectsGarbage(t *testing.T) {
	st := store.New()
	b := &server.Blockserver{Store: st}
	addr := startServer(t, "tcp:127.0.0.1:0", b)
	if _, err := oneShot(addr, server.OpPutChunkCompressed, []byte("not lepton"), 5*time.Second); err == nil {
		t.Fatal("expected rejection of non-Lepton payload")
	}
}

func TestGetChunkBadHash(t *testing.T) {
	st := store.New()
	b := &server.Blockserver{Store: st}
	addr := startServer(t, "tcp:127.0.0.1:0", b)
	cl := dial(t, addr)
	var missing [32]byte
	for _, c := range []struct {
		name     string
		op       byte
		body     []byte
		notFound bool
	}{
		{"get short hash", server.OpGetChunkCompressed, []byte{1, 2}, false},
		{"get unknown hash", server.OpGetChunkCompressed, missing[:], true},
		{"range short body", server.OpGetRange, missing[:], false},
		{"range unknown hash", server.OpGetRange, rangeReq(missing, 0, 16), true},
	} {
		_, err := do(cl, c.op, c.body, 5*time.Second)
		wantRemote(t, c.name, err, c.notFound)
	}
	// In-band refusals leave the connection usable.
	if _, err := cl.Load(context.Background()); err != nil {
		t.Fatalf("connection unusable after refusals: %v", err)
	}
}

// TestUnknownOpAnswersInBand: an op the server does not know — the retired
// server-side chunk ops 'P' and 'G', or a byte never defined — gets an
// in-band StatusError, counts as an error, and leaves the persistent
// connection serving.
func TestUnknownOpAnswersInBand(t *testing.T) {
	b := &server.Blockserver{Store: store.New()}
	addr := startServer(t, "tcp:127.0.0.1:0", b)
	cl := dial(t, addr)
	for i, op := range []byte{'P', 'G', 0xEE} {
		_, err := do(cl, op, []byte("payload"), 5*time.Second)
		wantRemote(t, fmt.Sprintf("op %q", op), err, false)
		if !strings.Contains(err.Error(), "unknown op") {
			t.Fatalf("op %q: %v, want \"unknown op\"", op, err)
		}
		if got := b.StatsSnapshot()["errors"]; got != int64(i+1) {
			t.Fatalf("after op %q: errors = %d, want %d", op, got, i+1)
		}
	}
	if _, err := cl.Load(context.Background()); err != nil {
		t.Fatalf("load after unknown ops: %v", err)
	}
}

// TestPersistentConnectionManyRequests issues well over 100 sequential
// compress/decompress exchanges over one TCP connection — the
// persistent-connection contract of this PR's server refactor.
func TestPersistentConnectionManyRequests(t *testing.T) {
	b := &server.Blockserver{}
	addr := startServer(t, "tcp:127.0.0.1:0", b)

	cl := dial(t, addr)

	// A few distinct files so pooled state is exercised across shapes.
	var datas [][]byte
	var comps [][]byte
	for i := 0; i < 4; i++ {
		data := gen(t, int64(200+i), 96+16*i, 96)
		comp, err := do(cl, server.OpCompress, data, 20*time.Second)
		if err != nil {
			t.Fatalf("compress %d: %v", i, err)
		}
		datas = append(datas, data)
		comps = append(comps, comp)
	}
	const rounds = 120
	for i := 0; i < rounds; i++ {
		k := i % len(datas)
		if i%2 == 0 {
			comp, err := do(cl, server.OpCompress, datas[k], 20*time.Second)
			if err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
			if !bytes.Equal(comp, comps[k]) {
				t.Fatalf("request %d: compressed bytes changed across requests", i)
			}
		} else {
			back, err := do(cl, server.OpDecompress, comps[k], 20*time.Second)
			if err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
			if !bytes.Equal(back, datas[k]) {
				t.Fatalf("request %d: decompress mismatch", i)
			}
		}
	}
	if st := b.StatsSnapshot(); st["compresses"]+st["decompresses"] < rounds {
		t.Fatalf("server saw %d conversions, want >= %d", st["compresses"]+st["decompresses"], rounds)
	}
}

// TestPersistentConnectionShortLivedContexts: each request on one
// persistent connection runs under its own context, cancelled the moment
// the request returns. The cancellation watcher of one request must be
// gone before the next begins — one that woke late would move the next
// request's deadline into the past and fail it with an I/O timeout.
func TestPersistentConnectionShortLivedContexts(t *testing.T) {
	b := &server.Blockserver{}
	addr := startServer(t, "tcp:127.0.0.1:0", b)
	cl := dial(t, addr)

	const rounds = 4000
	for i := 0; i < rounds; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		_, err := cl.DoCtx(ctx, server.OpLoad, nil)
		cancel()
		if err != nil {
			t.Fatalf("request %d (cancel after return): %v", i, err)
		}
		if _, err := do(cl, server.OpLoad, nil, time.Minute); err != nil {
			t.Fatalf("request %d (timeout context): %v", i, err)
		}
	}
}

// TestPersistentConnectionMixedOps drives load probes and store ops through
// the same persistent connection as conversions.
func TestPersistentConnectionMixedOps(t *testing.T) {
	st := store.New()
	st.ChunkSize = 64 << 10
	b := &server.Blockserver{Store: st}
	addr := startServer(t, "tcp:127.0.0.1:0", b)
	cl := dial(t, addr)

	data := gen(t, 210, 160, 120)
	for i := 0; i < 5; i++ {
		if _, err := do(cl, server.OpLoad, nil, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		comp, err := do(cl, server.OpCompress, data, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		h, err := do(cl, server.OpPutChunkCompressed, comp, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		cb, err := do(cl, server.OpGetChunkCompressed, h, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		back, err := do(cl, server.OpDecompress, cb, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, data) {
			t.Fatal("store round trip over persistent connection mismatch")
		}
	}
	// A remote error (garbage decompress payload) must not poison the
	// connection for later requests.
	if _, err := do(cl, server.OpDecompress, []byte("junk"), 5*time.Second); err == nil {
		t.Fatal("garbage decompress should fail")
	}
	if _, err := do(cl, server.OpLoad, nil, 5*time.Second); err != nil {
		t.Fatalf("connection unusable after remote error: %v", err)
	}
}

// TestWorkerPoolBounded serves many concurrent conversions through a
// one-slot worker pool: everything must still complete (queued, not
// rejected), and the load probe must see the backlog.
func TestWorkerPoolBounded(t *testing.T) {
	b := &server.Blockserver{Shards: 1}
	addr := startServer(t, "tcp:127.0.0.1:0", b)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data := gen(t, int64(300+i), 128, 96)
			comp, err := oneShot(addr, server.OpCompress, data, 60*time.Second)
			if err != nil {
				errs <- fmt.Errorf("compress %d: %w", i, err)
				return
			}
			back, err := decode(comp)
			if err != nil || !bytes.Equal(back, data) {
				errs <- fmt.Errorf("round trip %d failed (%v)", i, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	waitFor(t, 10*time.Second, func() bool { return b.InFlight() == 0 }, "in-flight count to drop to 0")
}
