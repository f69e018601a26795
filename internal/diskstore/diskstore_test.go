package diskstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// testOptions disables background loops and fsync so unit tests are fast
// and deterministic; durability-specific tests override.
func testOptions() Options {
	return Options{SyncInterval: -1, CompactInterval: -1}
}

func chunk(seed, n int) (Hash, []byte) {
	data := make([]byte, n)
	r := rand.New(rand.NewSource(int64(seed)))
	r.Read(data)
	return sha256.Sum256(data), data
}

func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

func mustPut(t *testing.T, s *Store, h Hash, data []byte) {
	t.Helper()
	if err := s.Put(h, data); err != nil {
		t.Fatalf("Put: %v", err)
	}
}

func mustGet(t *testing.T, s *Store, h Hash, want []byte) {
	t.Helper()
	got, ok, err := s.Get(h)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !ok {
		t.Fatalf("Get: chunk %x missing", h[:8])
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Get: chunk %x: got %d bytes, want %d (content differs)", h[:8], len(got), len(want))
	}
}

func TestPutGetDeleteReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testOptions())

	const n = 50
	hashes := make([]Hash, n)
	blobs := make([][]byte, n)
	for i := range hashes {
		hashes[i], blobs[i] = chunk(i, 100+i*37)
		mustPut(t, s, hashes[i], blobs[i])
	}
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
	// Idempotent re-put.
	mustPut(t, s, hashes[0], blobs[0])
	if s.Len() != n {
		t.Fatalf("Len after re-put = %d, want %d", s.Len(), n)
	}
	// Delete a few.
	for i := 0; i < 5; i++ {
		if err := s.Delete(hashes[i]); err != nil {
			t.Fatalf("Delete: %v", err)
		}
	}
	if _, ok, _ := s.Get(hashes[0]); ok {
		t.Fatal("deleted chunk still readable")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen: replay must rebuild exactly the live set.
	s = mustOpen(t, dir, testOptions())
	defer s.Close()
	if s.Len() != n-5 {
		t.Fatalf("Len after reopen = %d, want %d", s.Len(), n-5)
	}
	for i := 0; i < 5; i++ {
		if _, ok, _ := s.Get(hashes[i]); ok {
			t.Fatalf("deleted chunk %d resurrected by replay", i)
		}
	}
	for i := 5; i < n; i++ {
		mustGet(t, s, hashes[i], blobs[i])
	}
	st := s.BackendStats()
	if st["truncated_tails"] != 0 || st["quarantined_records"] != 0 {
		t.Fatalf("clean replay reported damage: %+v", st)
	}
}

func TestEmptyAndMissing(t *testing.T) {
	s := mustOpen(t, t.TempDir(), testOptions())
	defer s.Close()
	h, _ := chunk(1, 10)
	if _, ok, err := s.Get(h); ok || err != nil {
		t.Fatalf("Get on empty store: ok=%v err=%v", ok, err)
	}
	if err := s.Delete(h); err != nil {
		t.Fatalf("Delete of absent hash: %v", err)
	}
	// Zero-length chunk is legal.
	zh := sha256.Sum256(nil)
	mustPut(t, s, zh, nil)
	got, ok, err := s.Get(zh)
	if !ok || err != nil || len(got) != 0 {
		t.Fatalf("zero-length chunk: got %v ok=%v err=%v", got, ok, err)
	}
}

func TestTornTailTruncation(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testOptions())
	h1, b1 := chunk(1, 200)
	h2, b2 := chunk(2, 300)
	mustPut(t, s, h1, b1)
	mustPut(t, s, h2, b2)
	s.Close()

	path := segPath(dir, 1)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec1Len := int64(headerSize + len(b1))

	// Cut the file at every byte boundary inside the second record: replay
	// must keep chunk 1, lose chunk 2, and truncate the tail cleanly.
	for _, cut := range []int64{rec1Len + 1, rec1Len + headerSize - 1, rec1Len + headerSize, rec1Len + headerSize + 10, int64(len(full)) - 1} {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s := mustOpen(t, dir, testOptions())
		mustGet(t, s, h1, b1)
		if _, ok, _ := s.Get(h2); ok {
			t.Fatalf("cut=%d: torn chunk still readable", cut)
		}
		if st := s.BackendStats(); st["truncated_tails"] == 0 {
			t.Fatalf("cut=%d: no truncation counted", cut)
		}
		// The torn bytes are gone from disk: a second replay is clean.
		s.Close()
		s = mustOpen(t, dir, testOptions())
		if st := s.BackendStats(); st["truncated_tails"] != 0 {
			t.Fatalf("cut=%d: second replay still truncating (%+v)", cut, st)
		}
		mustGet(t, s, h1, b1)
		// And the store still accepts writes.
		mustPut(t, s, h2, b2)
		mustGet(t, s, h2, b2)
		s.Close()
	}
}

func TestBitFlipQuarantineOnReplay(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testOptions())
	h1, b1 := chunk(1, 200)
	h2, b2 := chunk(2, 300)
	h3, b3 := chunk(3, 150)
	mustPut(t, s, h1, b1)
	mustPut(t, s, h2, b2)
	mustPut(t, s, h3, b3)
	s.Close()

	// Flip a bit inside record 2's payload: replay must quarantine just
	// that record and keep walking to record 3.
	path := segPath(dir, 1)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(headerSize+len(b1)) + headerSize + 10
	full[off] ^= 0x40
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}

	s = mustOpen(t, dir, testOptions())
	defer s.Close()
	mustGet(t, s, h1, b1)
	mustGet(t, s, h3, b3)
	if _, ok, _ := s.Get(h2); ok {
		t.Fatal("bit-flipped chunk served")
	}
	st := s.BackendStats()
	if st["quarantined_records"] != 1 {
		t.Fatalf("QuarantinedRecords = %d, want 1", st["quarantined_records"])
	}
	if st["garbage_bytes"] == 0 {
		t.Fatal("quarantined record not counted as garbage")
	}
	// A repair write re-admits the chunk.
	mustPut(t, s, h2, b2)
	mustGet(t, s, h2, b2)
}

func TestBitFlipQuarantineOnRead(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testOptions())
	h1, b1 := chunk(1, 4096)
	mustPut(t, s, h1, b1)

	// Corrupt the payload on disk underneath the open store.
	path := segPath(dir, 1)
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF}, headerSize+100); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if _, ok, err := s.Get(h1); ok || err != nil {
		t.Fatalf("corrupt read: ok=%v err=%v (want miss, nil)", ok, err)
	}
	if st := s.BackendStats(); st["quarantined_records"] != 1 {
		t.Fatalf("QuarantinedRecords = %d, want 1", st["quarantined_records"])
	}
	// Quarantine dropped it from the index, so a repair put works.
	mustPut(t, s, h1, b1)
	mustGet(t, s, h1, b1)
	s.Close()
}

func TestGarbageFramingTruncates(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testOptions())
	h1, b1 := chunk(1, 100)
	mustPut(t, s, h1, b1)
	s.Close()

	// Append garbage that parses as an impossible header (bad kind, then a
	// huge length): replay must truncate, not chase a bogus length.
	for _, garbage := range [][]byte{
		{0xde, 0xad, 0xbe, 0xef, 0x77},
		func() []byte {
			g := make([]byte, headerSize)
			g[4] = kindPut
			binary.LittleEndian.PutUint32(g[37:], 1<<31)
			return g
		}(),
	} {
		full, err := os.ReadFile(segPath(dir, 1))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(segPath(dir, 1), append(full, garbage...), 0o644); err != nil {
			t.Fatal(err)
		}
		s := mustOpen(t, dir, testOptions())
		mustGet(t, s, h1, b1)
		if st := s.BackendStats(); st["truncated_tails"] == 0 {
			t.Fatal("garbage tail not truncated")
		}
		s.Close()
	}
}

func TestSegmentRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()
	opts.SegmentTargetSize = 4 << 10 // force many small segments
	opts.CompactMinGarbage = 1
	opts.CompactFraction = 0.3
	s := mustOpen(t, dir, opts)

	const n = 64
	hashes := make([]Hash, n)
	blobs := make([][]byte, n)
	for i := range hashes {
		hashes[i], blobs[i] = chunk(i, 512)
		mustPut(t, s, hashes[i], blobs[i])
	}
	st := s.BackendStats()
	if st["segments"] < 4 {
		t.Fatalf("expected rotation to produce several segments, got %d", st["segments"])
	}

	// Delete most of the early chunks, making early segments garbage-heavy.
	for i := 0; i < n/2; i++ {
		if err := s.Delete(hashes[i]); err != nil {
			t.Fatal(err)
		}
	}
	for {
		did, err := s.Compact()
		if err != nil {
			t.Fatalf("Compact: %v", err)
		}
		if !did {
			break
		}
	}
	st2 := s.BackendStats()
	if st2["compactions"] == 0 {
		t.Fatal("no compactions ran")
	}
	if st2["segments"] >= st["segments"] {
		t.Fatalf("compaction did not reduce segments: %d -> %d", st["segments"], st2["segments"])
	}
	if st2["last_compaction_unix"] == 0 {
		t.Fatal("LastCompactionUnix not stamped")
	}
	// Live data intact, deletes still deleted — including after replay, so
	// tombstone re-append worked.
	check := func(s *Store) {
		t.Helper()
		for i := 0; i < n/2; i++ {
			if _, ok, _ := s.Get(hashes[i]); ok {
				t.Fatalf("deleted chunk %d visible after compaction", i)
			}
		}
		for i := n / 2; i < n; i++ {
			mustGet(t, s, hashes[i], blobs[i])
		}
	}
	check(s)
	s.Close()
	s = mustOpen(t, dir, opts)
	defer s.Close()
	check(s)
}

func TestHashesAfterPaging(t *testing.T) {
	s := mustOpen(t, t.TempDir(), testOptions())
	defer s.Close()
	want := make(map[Hash]bool)
	for i := 0; i < 100; i++ {
		h, b := chunk(i, 64)
		mustPut(t, s, h, b)
		want[h] = true
	}
	// Page through with size 7; union must be exactly the live set, each
	// page strictly ascending and past the cursor.
	var (
		after Hash
		got   = make(map[Hash]bool)
	)
	for {
		page := s.HashesAfter(after, 7)
		if len(page) == 0 {
			break
		}
		if len(page) > 7 {
			t.Fatalf("page of %d > max 7", len(page))
		}
		prev := after
		for _, h := range page {
			if !greaterThan(h, prev) {
				t.Fatalf("page not strictly ascending past cursor")
			}
			prev = h
			if got[h] {
				t.Fatalf("hash %x listed twice", h[:8])
			}
			got[h] = true
		}
		after = page[len(page)-1]
	}
	if len(got) != len(want) {
		t.Fatalf("paged %d hashes, want %d", len(got), len(want))
	}
	for h := range want {
		if !got[h] {
			t.Fatalf("hash %x never listed", h[:8])
		}
	}
	if all := s.HashesAfter(Hash{}, 0); len(all) != 100 {
		t.Fatalf("HashesAfter(zero, 0) = %d hashes, want 100", len(all))
	}
}

func TestGroupCommitDurability(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SyncInterval: 0, CompactInterval: -1} // group commit
	s := mustOpen(t, dir, opts)
	var wg sync.WaitGroup
	const n = 32
	hashes := make([]Hash, n)
	blobs := make([][]byte, n)
	for i := 0; i < n; i++ {
		hashes[i], blobs[i] = chunk(i, 256)
	}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := s.Put(hashes[i], blobs[i]); err != nil {
				t.Errorf("Put: %v", err)
			}
		}(i)
	}
	wg.Wait()
	st := s.BackendStats()
	if st["syncs"] == 0 {
		t.Fatal("group commit issued no fsyncs")
	}
	// Group commit should have coalesced: far fewer fsyncs than puts is
	// the point, but with 1 core we can only assert it synced at all and
	// everything survives a reopen.
	s.Close()
	s = mustOpen(t, dir, opts)
	defer s.Close()
	for i := 0; i < n; i++ {
		mustGet(t, s, hashes[i], blobs[i])
	}
}

func TestPeriodicSyncFlushOnClose(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SyncInterval: time.Hour, CompactInterval: -1}
	s := mustOpen(t, dir, opts)
	h, b := chunk(1, 128)
	mustPut(t, s, h, b) // returns before any fsync
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s = mustOpen(t, dir, testOptions())
	defer s.Close()
	mustGet(t, s, h, b)
}

func TestConcurrentPutGet(t *testing.T) {
	opts := testOptions()
	opts.SegmentTargetSize = 8 << 10
	s := mustOpen(t, t.TempDir(), opts)
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				h, b := chunk(g*1000+i, 300)
				if err := s.Put(h, b); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				got, ok, err := s.Get(h)
				if err != nil || !ok || !bytes.Equal(got, b) {
					t.Errorf("Get after Put: ok=%v err=%v", ok, err)
					return
				}
			}
		}(g)
	}
	// Concurrent lister + compactor.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			s.HashesAfter(Hash{}, 100)
			if _, err := s.Compact(); err != nil {
				t.Errorf("Compact: %v", err)
			}
		}
	}()
	wg.Wait()
	if s.Len() != 8*50 {
		t.Fatalf("Len = %d, want %d", s.Len(), 8*50)
	}
}

func TestClosedStoreErrors(t *testing.T) {
	s := mustOpen(t, t.TempDir(), testOptions())
	h, b := chunk(1, 10)
	mustPut(t, s, h, b)
	s.Close()
	if err := s.Put(h, b); err != ErrClosed {
		t.Fatalf("Put after Close: %v, want ErrClosed", err)
	}
	if err := s.Delete(h); err != ErrClosed {
		t.Fatalf("Delete after Close: %v, want ErrClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

func TestBackendStatsKeys(t *testing.T) {
	s := mustOpen(t, t.TempDir(), testOptions())
	defer s.Close()
	h, b := chunk(1, 100)
	mustPut(t, s, h, b)
	m := s.BackendStats()
	for _, key := range []string{
		"chunks", "segments", "live_bytes", "garbage_bytes",
		"quarantined_records", "truncated_tails", "compactions",
		"last_compaction_unix", "syncs",
	} {
		if _, ok := m[key]; !ok {
			t.Fatalf("BackendStats missing %q", key)
		}
	}
	if m["chunks"] != 1 || m["segments"] != 1 || m["live_bytes"] == 0 {
		t.Fatalf("implausible stats: %v", m)
	}
}

func TestOversizeChunkRejected(t *testing.T) {
	s := mustOpen(t, t.TempDir(), testOptions())
	defer s.Close()
	var h Hash
	if err := s.Put(h, make([]byte, maxRecordPayload+1)); err == nil {
		t.Fatal("oversize chunk accepted")
	}
}

func TestIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"notes.txt", "seg-bogus.log", "seg-00000000.log"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := mustOpen(t, dir, testOptions())
	defer s.Close()
	h, b := chunk(1, 50)
	mustPut(t, s, h, b)
	mustGet(t, s, h, b)
}

func TestManySegmentsReplayStress(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()
	opts.SegmentTargetSize = 2 << 10
	s := mustOpen(t, dir, opts)
	type kv struct {
		h Hash
		b []byte
	}
	var live []kv
	for i := 0; i < 200; i++ {
		h, b := chunk(i, 200+i%17)
		mustPut(t, s, h, b)
		if i%3 == 0 {
			if err := s.Delete(h); err != nil {
				t.Fatal(err)
			}
		} else {
			live = append(live, kv{h, b})
		}
	}
	s.Close()
	s = mustOpen(t, dir, opts)
	defer s.Close()
	if s.Len() != len(live) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(live))
	}
	for _, e := range live {
		mustGet(t, s, e.h, e.b)
	}
}

func TestLogfReceivesDiagnostics(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testOptions())
	h, b := chunk(1, 100)
	mustPut(t, s, h, b)
	s.Close()
	full, err := os.ReadFile(segPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segPath(dir, 1), full[:len(full)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	var logged []string
	opts := testOptions()
	opts.Logf = func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	}
	s = mustOpen(t, dir, opts)
	s.Close()
	if len(logged) == 0 {
		t.Fatal("torn-tail truncation produced no diagnostics")
	}
}
