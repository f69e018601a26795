package lepton_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"lepton"
	"lepton/internal/imagegen"
)

func TestStorePutGetFile(t *testing.T) {
	ctx := context.Background()
	data, err := imagegen.Generate(21, 1280, 960)
	if err != nil {
		t.Fatal(err)
	}
	st := lepton.NewStore(&lepton.StoreOptions{ChunkSize: 64 << 10})
	ref, err := st.PutFile(ctx, data)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Chunks) < 2 {
		t.Fatalf("want multiple chunks, got %d", len(ref.Chunks))
	}
	back, err := st.GetFile(ctx, ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("store round trip mismatch")
	}
	c := st.Counters()
	if c.LeptonChunks == 0 {
		t.Fatalf("no Lepton chunks stored: %+v", c)
	}
	if c.BytesStored >= c.BytesIn {
		t.Fatalf("no savings: stored %d of %d bytes in", c.BytesStored, c.BytesIn)
	}

	// A range covering exactly the second chunk decodes that chunk alone.
	part, err := st.GetFileRange(ctx, ref, 64<<10, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(part, data[64<<10:min(128<<10, len(data))]) {
		t.Fatal("second-chunk range mismatch")
	}
}

// TestStoreClientSidePath covers the §7 client-side codec deployment
// through the public API: a chunk compressed locally is uploaded as is,
// comes back with its compressed bytes unchanged and decodes to the
// original, and a payload that is not a container is refused by the nodes'
// admission check.
func TestStoreClientSidePath(t *testing.T) {
	fleet, err := lepton.DialFleet(startFleetNodes(t, 2), &lepton.FleetOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	codec := lepton.NewCodec()
	st, err := lepton.NewFleetStore(fleet, &lepton.FleetStoreOptions{Codec: codec})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	data := gen(t, 22, 256, 192)
	res, err := codec.CompressCtx(ctx, data, &lepton.Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	h, err := st.Put(ctx, res.Compressed)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := st.GetCompressed(ctx, h)
	if err != nil || !bytes.Equal(cb, res.Compressed) {
		t.Fatalf("compressed bytes changed in store: %v", err)
	}
	back, err := st.GetRange(ctx, h, 0, int64(len(data)))
	if err != nil || !bytes.Equal(back, data) {
		t.Fatalf("client-side chunk round trip failed: %v", err)
	}
	if _, err := st.Put(ctx, []byte("not a container")); err == nil {
		t.Fatal("Put accepted garbage")
	}
}

// TestStoreShutoffSwitch covers the §5.7 kill switch through the public
// API: with the shutoff file present, uploads bypass the encoder entirely.
func TestStoreShutoffSwitch(t *testing.T) {
	ctx := context.Background()
	shutoff := filepath.Join(t.TempDir(), "shutoff")
	if err := os.WriteFile(shutoff, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := imagegen.Generate(23, 256, 192)
	if err != nil {
		t.Fatal(err)
	}
	st := lepton.NewStore(&lepton.StoreOptions{ShutoffPath: shutoff})
	ref, err := st.PutFile(ctx, data)
	if err != nil {
		t.Fatal(err)
	}
	c := st.Counters()
	if c.LeptonChunks != 0 || c.DeflateChunks == 0 || c.ShutoffSkips != 1 {
		t.Fatalf("shutoff not honored: %+v", c)
	}
	// Removing the file re-enables the codec within one call.
	if err := os.Remove(shutoff); err != nil {
		t.Fatal(err)
	}
	if _, err := st.PutFile(ctx, data); err != nil {
		t.Fatal(err)
	}
	if c := st.Counters(); c.LeptonChunks == 0 {
		t.Fatalf("codec still bypassed after shutoff removal: %+v", c)
	}
	back, err := st.GetFile(ctx, ref)
	if err != nil || !bytes.Equal(back, data) {
		t.Fatalf("deflate-mode file unreadable: %v", err)
	}
}

func TestStoreSafetyNet(t *testing.T) {
	ctx := context.Background()
	net := lepton.NewMemSafetyNet()
	data, err := imagegen.Generate(24, 256, 192)
	if err != nil {
		t.Fatal(err)
	}
	st := lepton.NewStore(&lepton.StoreOptions{SafetyNet: net})
	ref, err := st.PutFile(ctx, data)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := st.RecoverFromSafetyNet(ref.Chunks[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, data) {
		t.Fatal("safety net holds different bytes")
	}
	// The §6.5 incident: a failing safety net degrades uploads.
	net.FailPuts.Store(true)
	if _, err := st.PutFile(ctx, data); err == nil {
		t.Fatal("upload succeeded with a failing safety net")
	}
}

func TestStorePutFileCancelled(t *testing.T) {
	data, err := imagegen.Generate(25, 512, 384)
	if err != nil {
		t.Fatal(err)
	}
	st := lepton.NewStore(nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := st.PutFile(ctx, data); !errors.Is(err, context.Canceled) {
		t.Fatalf("PutFile on cancelled ctx: err = %v, want context.Canceled", err)
	}
	if c := st.Counters(); c.BytesStored != 0 {
		t.Fatalf("cancelled upload stored %d bytes", c.BytesStored)
	}
}
