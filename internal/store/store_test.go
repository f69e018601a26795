package store_test

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"lepton/internal/core"
	"lepton/internal/imagegen"
	"lepton/internal/jpeg"
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

func TestPutGetFile(t *testing.T) {
	st := store.New()
	st.ChunkSize = 8 << 10
	data := gen(t, 1, 512, 384)
	ref, err := st.PutFileCtx(context.Background(), data)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Chunks) != (len(data)+8<<10-1)/(8<<10) {
		t.Fatalf("%d chunks for %d bytes", len(ref.Chunks), len(data))
	}
	back, err := st.GetFileCtx(context.Background(), ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("file mismatch")
	}
	c := st.Counters()
	if c.LeptonChunks == 0 {
		t.Fatal("no chunks used Lepton")
	}
	if c.BytesStored >= c.BytesIn {
		t.Fatalf("no storage savings: %d >= %d", c.BytesStored, c.BytesIn)
	}
}

// TestGetFileDecodesIntoOneBuffer checks that GetFileCtx decodes every
// chunk straight into the file's buffer: a read allocates that buffer and
// the decodes' own scratch, about 2.3 bytes per file byte. Decoding each
// chunk into a buffer of its own and copying it in adds at least another
// file's worth.
func TestGetFileDecodesIntoOneBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers, so decodes allocate more")
	}
	st := store.New()
	st.ChunkSize = 64 << 10
	data := gen(t, 1, 2048, 1536)
	ref, err := st.PutFileCtx(context.Background(), data)
	if err != nil {
		t.Fatal(err)
	}
	get := func() {
		back, err := st.GetFileCtx(context.Background(), ref)
		if err != nil || !bytes.Equal(back, data) {
			t.Fatalf("file mismatch: %v", err)
		}
	}
	// One CPU runs the chunk's segments one at a time, so the warm pools
	// hold all the scratch the reads need.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	get()
	const runs = 5
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range runs {
		get()
	}
	runtime.ReadMemStats(&after)
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(len(data))
	t.Logf("%d chunks: %.2f bytes allocated per file byte", len(ref.Chunks), perByte)
	if perByte > 3 {
		t.Fatalf("a %d-byte read allocated %.2f bytes per file byte, want at most 3", len(data), perByte)
	}
}

func TestNonJPEGFallsBackToDeflate(t *testing.T) {
	st := store.New()
	st.ChunkSize = 16 << 10
	data := make([]byte, 40<<10)
	rand.New(rand.NewSource(2)).Read(data)
	ref, err := st.PutFileCtx(context.Background(), data)
	if err != nil {
		t.Fatal(err)
	}
	back, err := st.GetFileCtx(context.Background(), ref)
	if err != nil || !bytes.Equal(back, data) {
		t.Fatalf("fallback roundtrip failed: %v", err)
	}
	c := st.Counters()
	if c.DeflateChunks == 0 {
		t.Fatal("expected deflate chunks")
	}
	if c.LeptonChunks != 0 {
		t.Fatal("random bytes must not take the Lepton path")
	}
}

func TestShutoffSwitch(t *testing.T) {
	st := store.New()
	st.ChunkSize = 64 << 10
	shutoff := filepath.Join(t.TempDir(), "lepton-shutoff")
	st.ShutoffPath = shutoff
	data := gen(t, 3, 256, 256)

	// No shutoff file: Lepton used.
	if _, err := st.PutFileCtx(context.Background(), data); err != nil {
		t.Fatal(err)
	}
	if st.Counters().LeptonChunks == 0 {
		t.Fatal("expected Lepton before shutoff")
	}
	// Drop the shutoff file: encodes must bypass Lepton within one call
	// (production: 30 seconds fleet-wide, §5.7).
	if err := os.WriteFile(shutoff, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	before := st.Counters().LeptonChunks
	ref, err := st.PutFileCtx(context.Background(), data)
	if err != nil {
		t.Fatal(err)
	}
	c := st.Counters()
	if c.LeptonChunks != before {
		t.Fatal("Lepton used despite shutoff")
	}
	if c.ShutoffSkips == 0 {
		t.Fatal("shutoff skip not counted")
	}
	// Data must still be retrievable.
	back, err := st.GetFileCtx(context.Background(), ref)
	if err != nil || !bytes.Equal(back, data) {
		t.Fatal("post-shutoff file corrupted")
	}
}

func TestSafetyNetReceivesUploads(t *testing.T) {
	st := store.New()
	st.ChunkSize = 32 << 10
	net := store.NewMemSafetyNet()
	st.Net = net
	data := gen(t, 4, 300, 200)
	ref, err := st.PutFileCtx(context.Background(), data)
	if err != nil {
		t.Fatal(err)
	}
	// DRT drill (§5.7): recover every chunk from the safety net alone.
	var rebuilt []byte
	for _, h := range ref.Chunks {
		raw, err := st.RecoverFromSafetyNet(h)
		if err != nil {
			t.Fatal(err)
		}
		rebuilt = append(rebuilt, raw...)
	}
	if !bytes.Equal(rebuilt, data) {
		t.Fatal("safety net recovery mismatch")
	}
}

func TestSafetyNetOutageDegradesUploads(t *testing.T) {
	// §6.5: when the safety net's writes fail, uploads fail — the
	// belt-and-suspenders mechanism caused the only user-visible incident.
	st := store.New()
	net := store.NewMemSafetyNet()
	net.FailPuts.Store(true)
	st.Net = net
	if _, err := st.PutFileCtx(context.Background(), gen(t, 5, 64, 64)); err == nil {
		t.Fatal("expected upload failure during safety net outage")
	}
	// Removing the safety net restores availability.
	st.Net = nil
	if _, err := st.PutFileCtx(context.Background(), gen(t, 5, 64, 64)); err != nil {
		t.Fatal(err)
	}
}

func TestQualify(t *testing.T) {
	var corpus [][]byte
	for seed := int64(10); seed < 18; seed++ {
		corpus = append(corpus, gen(t, seed, 96, 96))
	}
	corpus = append(corpus,
		imagegen.MakeProgressive(corpus[0]),
		imagegen.CMYKStub(),
		imagegen.NotImage(1, 2048),
	)
	q := store.Qualify(corpus)
	if q.Total != 11 {
		t.Fatalf("total = %d", q.Total)
	}
	if q.ByReason[0] != 8 { // ReasonNone
		t.Fatalf("successes = %d, want 8: %s", q.ByReason[0], q)
	}
	if q.CrossCheckFailures != 0 {
		t.Fatalf("cross-check failures: %s", q)
	}
	if q.SuccessRatio() < 0.7 {
		t.Fatalf("success ratio %.2f", q.SuccessRatio())
	}
	if q.BytesOut >= q.BytesIn {
		t.Fatal("qualification saw no savings")
	}
}

func TestGetUnknownChunk(t *testing.T) {
	st := store.New()
	if _, err := st.GetChunkCtx(context.Background(), store.Hash{1, 2, 3}); err == nil {
		t.Fatal("expected error for unknown chunk")
	}
}

// flatJPEG returns a w×h 4:2:0 baseline JPEG in which every block is flat
// (DC difference 0, then EOB), built without coefficient planes: with the
// standard Huffman tables each MCU codes as the same 32 bits, so the scan
// is one 4-byte pattern repeated.
func flatJPEG(t *testing.T, w, h int) []byte {
	t.Helper()
	small, err := imagegen.EncodeJPEG(imagegen.Synthesize(1, 16, 16), imagegen.Options{Quality: 90, SubsampleChroma: true, PadBit: 1})
	if err != nil {
		t.Fatal(err)
	}
	f, err := jpeg.Parse(small, 0)
	if err != nil {
		t.Fatal(err)
	}
	hdr := append([]byte(nil), f.Header...)
	sof := bytes.Index(hdr, []byte{0xFF, 0xC0})
	if sof < 0 {
		t.Fatal("no SOF0 in the header")
	}
	hdr[sof+5], hdr[sof+6] = byte(h>>8), byte(h)
	hdr[sof+7], hdr[sof+8] = byte(w>>8), byte(w)
	// Four luma blocks of DC "00" + EOB "1010", two chroma blocks of
	// DC "00" + EOB "00".
	mcus := ((w + 15) / 16) * ((h + 15) / 16)
	scan := bytes.Repeat([]byte{0x28, 0xA2, 0x8A, 0x00}, mcus)
	return slices.Concat(hdr, scan, []byte{0xFF, 0xD9})
}

// TestPutFileBeyondPlaneBudgetIsLepton stores a 67 MP JPEG, whose whole
// coefficient planes (201 MB) exceed the encode budget, through a disk-less
// Store: a put streams the scan through row windows, so every chunk is a
// Lepton chunk and the file comes back byte for byte.
func TestPutFileBeyondPlaneBudgetIsLepton(t *testing.T) {
	if testing.Short() {
		t.Skip("67 MP encode and decode")
	}
	data := flatJPEG(t, 8192, 8192)
	f, err := jpeg.Parse(data, core.MemEncodeBudget)
	if err != nil {
		t.Fatal(err)
	}
	if planes := int64(f.CoefficientCount()) * 2; f.Width*f.Height < 64e6 || planes <= core.MemEncodeBudget {
		t.Fatalf("%dx%d with %d plane bytes: want at least 64 MP and planes over %d", f.Width, f.Height, planes, core.MemEncodeBudget)
	}
	st := store.New()
	// Several chunks, each with a row start, so every one is Lepton.
	st.ChunkSize = 300 << 10
	ref, err := st.PutFileCtx(context.Background(), data)
	if err != nil {
		t.Fatal(err)
	}
	c := st.Counters()
	if c.LeptonChunks == 0 || c.DeflateChunks != 0 {
		t.Fatalf("%d Lepton and %d deflate chunks, want only Lepton", c.LeptonChunks, c.DeflateChunks)
	}
	back, err := st.GetFileCtx(context.Background(), ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("file differs after a round trip")
	}
	t.Logf("%d bytes in %d chunks, %d stored", len(data), len(ref.Chunks), c.BytesStored)
}
