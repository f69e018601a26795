package server_test

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"lepton/internal/server"
)

// TestConnectionShardAffinity: a connection's serial requests all run on
// the shard it was pinned to at accept — with every worker idle there is
// never a reason to steal.
func TestConnectionShardAffinity(t *testing.T) {
	b := &server.Blockserver{Shards: 2}
	addr := startServer(t, "tcp:127.0.0.1:0", b)

	data := gen(t, 7, 128, 96)
	for i := 0; i < 3; i++ {
		if _, err := oneShot(addr, server.OpCompress, data, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	snap := settledSnapshot(t, b, "3 jobs done", func(s map[string]int64) bool {
		return s["shard0_done"]+s["shard1_done"] == 3
	})
	// Each Do dials a fresh connection; round-robin affinity alternates
	// shards 0,1,0, and idle-worker wakeups honor the pinning.
	if snap["shard0_done"] != 2 || snap["shard1_done"] != 1 {
		t.Fatalf("shard done counts %d/%d, want 2/1 (snap %v)",
			snap["shard0_done"], snap["shard1_done"], snap)
	}
	if snap["shard0_steals"] != 0 || snap["shard1_steals"] != 0 {
		t.Fatalf("unexpected steals: %v", snap)
	}
}

// TestShardedDrainWithQueue: with one shard and several concurrent
// requests, the backlog queues on the shard; a graceful Shutdown must let
// queued and running conversions alike finish with OK responses.
func TestShardedDrainWithQueue(t *testing.T) {
	b := &server.Blockserver{Shards: 1}
	addr := startServer(t, "tcp:127.0.0.1:0", b)

	data := gen(t, 8, 512, 384)
	const n = 4
	results := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = oneShot(addr, server.OpCompress, data, 30*time.Second)
		}(i)
	}
	// Let every request land (three queued behind the single shard), then
	// drain gracefully while they are all still in flight. The image is
	// big enough that the first conversion cannot finish before the last
	// request arrives.
	deadline := time.Now().Add(10 * time.Second)
	for b.InFlight() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d requests in flight", b.InFlight())
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := b.Shutdown(ctx); err != nil {
		t.Fatalf("graceful drain failed: %v", err)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d failed across drain: %v", i, errs[i])
		}
		if len(results[i]) == 0 || bytes.Equal(results[i], data) {
			t.Fatalf("request %d returned a non-conversion", i)
		}
	}
	settledSnapshot(t, b, fmt.Sprintf("shard0_done = %d", n), func(s map[string]int64) bool { return s["shard0_done"] == n })
}
