package main

import (
	"context"
	"os"
	"testing"

	"lepton/internal/backfill"
	"lepton/internal/diskstore"
	"lepton/internal/server"
	"lepton/internal/store"
)

// backfillBenchmark measures the §5.6 background recompression path end
// to end: a backfill Engine with verify-before-commit drives a two-node
// in-process fleet over loopback TCP. One op is one file fetched,
// compressed on a node, verified locally, and committed, with its share of
// the engine's checkpoints. Files follow backfill.Synthetic's photo-library
// size mix and are generated before the timer starts.
func backfillBenchmark() benchRecord {
	var addrs []string
	for i := 0; i < 2; i++ {
		b := &server.Blockserver{Store: store.New()}
		addr, err := server.ListenAndServe("tcp:127.0.0.1:0", b)
		if err != nil {
			panic(err)
		}
		defer b.Close()
		addrs = append(addrs, addr)
	}
	fleet, err := server.NewFleet(addrs, nil)
	if err != nil {
		panic(err)
	}
	defer fleet.Close()
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		dir, err := os.MkdirTemp("", "leptonbench-backfill")
		if err != nil {
			b.Fatal(err)
		}
		defer os.RemoveAll(dir)
		cs, err := diskstore.Open(dir, diskstore.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer cs.Close()
		m := backfill.Synthetic(8, b.N)
		src := &backfill.SyntheticSource{CacheCap: b.N}
		for _, e := range m.Entries {
			if _, err := src.Fetch(context.Background(), e); err != nil {
				b.Fatal(err)
			}
		}
		eng, err := backfill.New(backfill.Config{Verify: true, YieldPoll: -1}, fleet, src, cs, m)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		res, err := eng.Run(context.Background())
		b.StopTimer()
		if err != nil || !res.Complete || res.TotalFiles != uint64(b.N) {
			b.Fatalf("backfill: complete=%v files=%d of %d: %v", res.Complete, res.TotalFiles, b.N, err)
		}
	})
	return record("BackfillThroughput/2node-verify", r)
}
