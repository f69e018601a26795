package lepton_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"lepton"
	"lepton/internal/server"
	"lepton/internal/store"
)

// startFleetNodes spins n blockservers (with chunk stores) on loopback and
// returns their addresses.
func startFleetNodes(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		b := &server.Blockserver{Store: store.New()}
		bound, err := server.ListenAndServe("tcp:127.0.0.1:0", b)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = b.Close() })
		addrs[i] = bound
	}
	return addrs
}

// TestPublicFleetRoundtripAndStore exercises the public Fleet + FleetStore
// surface end to end over real loopback blockservers.
func TestPublicFleetRoundtripAndStore(t *testing.T) {
	addrs := startFleetNodes(t, 3)
	fleet, err := lepton.DialFleet(addrs, &lepton.FleetOptions{
		HealthInterval: 50 * time.Millisecond,
		Seed:           7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	ctx := context.Background()
	data := gen(t, 900, 320, 240)
	comp, err := fleet.Compress(ctx, data)
	if err != nil {
		t.Fatal(err)
	}
	if !lepton.IsCompressed(comp) {
		t.Fatal("fleet compress output missing magic")
	}
	back, err := fleet.Decompress(ctx, comp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("fleet roundtrip mismatch")
	}
	snap := fleet.StatsSnapshot()
	if snap["requests"] < 2 || snap["nodes_up"] != 3 {
		t.Fatalf("fleet snapshot: %v", snap)
	}

	st, err := lepton.NewFleetStore(fleet, &lepton.FleetStoreOptions{Replication: 2, ChunkSize: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := st.PutFile(ctx, data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.GetFile(ctx, ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("fleet store roundtrip mismatch")
	}
	for _, h := range ref.Chunks {
		if p := st.Placement(h); len(p) != 2 {
			t.Fatalf("placement %v: want 2 replicas", p)
		}
	}
	if c := st.StatsSnapshot(); c["puts"] == 0 || c["gets"] == 0 {
		t.Fatalf("fleet store counters empty: %v", c)
	}
}
