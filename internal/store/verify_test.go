package store

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"lepton/internal/imagegen"
)

// countingVerify wraps the store's real admission check and counts calls
// per chunk checksum; fail, when non-nil, may reject a chunk instead.
func countingVerify(st *Store, calls map[Hash]int, fail func(comp []byte) bool) {
	st.verify = func(ctx context.Context, comp, want []byte) error {
		calls[sha256.Sum256(comp)]++
		if fail != nil && fail(comp) {
			return errors.New("forced round-trip failure")
		}
		return st.Codec.VerifyCtx(ctx, comp, want)
	}
}

func verifyTestJPEG(t *testing.T) []byte {
	t.Helper()
	data, err := imagegen.Generate(61, 512, 384)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func mustGetFile(t *testing.T, st *Store, ref FileRef, want []byte) {
	t.Helper()
	back, err := st.GetFileCtx(context.Background(), ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, want) {
		t.Fatal("GetFile does not return the uploaded bytes")
	}
}

// TestPutFileVerifiesEachChunkOnce: the admission loop is the only
// round-trip check, and it checks every stored chunk exactly once.
func TestPutFileVerifiesEachChunkOnce(t *testing.T) {
	st := New()
	st.ChunkSize = 8 << 10
	calls := map[Hash]int{}
	countingVerify(st, calls, nil)
	data := verifyTestJPEG(t)

	ref, err := st.PutFileCtx(context.Background(), data)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Chunks) < 3 {
		t.Fatalf("want a multi-chunk file, got %d chunks", len(ref.Chunks))
	}
	if len(calls) != len(ref.Chunks) {
		t.Fatalf("verified %d distinct chunks, stored %d", len(calls), len(ref.Chunks))
	}
	for k, h := range ref.Chunks {
		if calls[h] != 1 {
			t.Fatalf("chunk %d verified %d times, want 1", k, calls[h])
		}
	}
	if c := st.Counters(); c.LeptonChunks == 0 || c.RoundtripFailures != 0 {
		t.Fatalf("counters: %+v", c)
	}
	mustGetFile(t, st, ref, data)
}

// TestPutFileLeptonVerifyFailureStoresRaw: one Lepton chunk failing
// admission sends the whole file down the raw (deflate) path before any
// chunk is stored.
func TestPutFileLeptonVerifyFailureStoresRaw(t *testing.T) {
	st := New()
	st.ChunkSize = 8 << 10
	calls := map[Hash]int{}
	failed := false
	countingVerify(st, calls, func(comp []byte) bool {
		// Fail the Lepton path's second chunk, so one chunk has already
		// passed admission when the file is rejected.
		if failed || isRawMode(comp) || len(calls) < 2 {
			return false
		}
		failed = true
		return true
	})
	data := verifyTestJPEG(t)

	ref, err := st.PutFileCtx(context.Background(), data)
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Fatal("the forced failure never fired")
	}
	c := st.Counters()
	if c.RoundtripFailures != 1 {
		t.Fatalf("RoundtripFailures = %d, want 1", c.RoundtripFailures)
	}
	if c.LeptonChunks != 0 || c.DeflateChunks != int64(len(ref.Chunks)) {
		t.Fatalf("want every chunk raw: %+v for %d chunks", c, len(ref.Chunks))
	}
	if st.Len() != len(ref.Chunks) {
		t.Fatalf("backend holds %d chunks, file has %d: a Lepton chunk was stored before the fallback",
			st.Len(), len(ref.Chunks))
	}
	for k, h := range ref.Chunks {
		cb, ok := st.GetCompressedChunk(h)
		if !ok || !isRawMode(cb) {
			t.Fatalf("chunk %d is not a raw container", k)
		}
		if calls[h] != 1 {
			t.Fatalf("raw chunk %d verified %d times, want 1", k, calls[h])
		}
	}
	mustGetFile(t, st, ref, data)
}

// TestPutFileRawVerifyFailureIsError: the raw path has nothing to fall
// back to, so a raw chunk failing admission fails the upload.
func TestPutFileRawVerifyFailureIsError(t *testing.T) {
	st := New()
	st.ChunkSize = 8 << 10
	st.ShutoffPath = filepath.Join(t.TempDir(), "shutoff")
	if err := os.WriteFile(st.ShutoffPath, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	countingVerify(st, map[Hash]int{}, func([]byte) bool { return true })

	if _, err := st.PutFileCtx(context.Background(), verifyTestJPEG(t)); err == nil {
		t.Fatal("PutFile succeeded though every raw chunk failed admission")
	}
	if c := st.Counters(); st.Len() != 0 || c.RoundtripFailures != 0 {
		t.Fatalf("stored %d chunks, counters %+v", st.Len(), c)
	}
}

// TestPutFileVerifyCancelled: cancellation during admission is the
// caller's error, not a codec failure — no fallback, nothing stored.
func TestPutFileVerifyCancelled(t *testing.T) {
	st := New()
	st.ChunkSize = 8 << 10
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st.verify = func(vctx context.Context, comp, want []byte) error {
		cancel()
		return st.Codec.VerifyCtx(vctx, comp, want)
	}
	if _, err := st.PutFileCtx(ctx, verifyTestJPEG(t)); !errors.Is(err, context.Canceled) {
		t.Fatalf("PutFileCtx = %v, want context.Canceled", err)
	}
	if c := st.Counters(); st.Len() != 0 || c.RoundtripFailures != 0 {
		t.Fatalf("stored %d chunks, counters %+v", st.Len(), c)
	}
}
