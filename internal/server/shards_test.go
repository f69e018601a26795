package server

import (
	"context"
	"testing"
	"time"
)

// waitParked blocks until every worker in p is idle on its condition
// variable, so submissions in the tests below are deterministic about
// which worker runs them.
func waitParked(t *testing.T, p *shardPool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		p.mu.Lock()
		all := true
		for i := range p.shards {
			if !p.shards[i].waiting {
				all = false
			}
		}
		p.mu.Unlock()
		if all {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("workers never parked")
		}
		time.Sleep(time.Millisecond)
	}
}

func submitFunc(t *testing.T, p *shardPool, shard int, fn func() bool) *shardJob {
	t.Helper()
	j := &shardJob{kind: jobFunc, fn: fn, shard: shard, done: make(chan struct{}, 1)}
	if err := p.submit(context.Background(), j); err != nil {
		t.Fatalf("submit: %v", err)
	}
	return j
}

// TestShardPoolAffinity: with every worker idle, a job lands on its
// preferred shard's worker — never a steal.
func TestShardPoolAffinity(t *testing.T) {
	p := newShardPool(2, nil)
	defer p.close()
	for round := 0; round < 3; round++ {
		for s := 0; s < 2; s++ {
			waitParked(t, p)
			j := submitFunc(t, p, s, func() bool { return true })
			if !j.ok {
				t.Fatal("job failed")
			}
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for s := 0; s < 2; s++ {
		if p.shards[s].jobs != 3 {
			t.Errorf("shard %d ran %d jobs, want 3", s, p.shards[s].jobs)
		}
		if p.shards[s].steals != 0 {
			t.Errorf("shard %d stole %d jobs, want 0", s, p.shards[s].steals)
		}
	}
}

// TestShardPoolStealing: with shard 0's worker pinned by a running job, a
// job queued for shard 0 is stolen and completed by shard 1's worker.
func TestShardPoolStealing(t *testing.T) {
	p := newShardPool(2, nil)
	defer p.close()
	waitParked(t, p)

	started := make(chan struct{})
	release := make(chan struct{})
	blockerDone := make(chan struct{})
	go func() {
		defer close(blockerDone)
		submitFunc(t, p, 0, func() bool {
			close(started)
			<-release
			return true
		})
	}()
	<-started

	// Worker 0 is pinned; this must complete via worker 1.
	done := make(chan *shardJob, 1)
	go func() {
		done <- submitFunc(t, p, 0, func() bool { return true })
	}()
	select {
	case j := <-done:
		if !j.ok {
			t.Fatal("stolen job failed")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("job queued behind a pinned shard was never stolen")
	}

	close(release)
	<-blockerDone
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.shards[1].steals != 1 {
		t.Errorf("shard 1 steals = %d, want 1", p.shards[1].steals)
	}
	if p.shards[0].jobs != 1 || p.shards[1].jobs != 1 {
		t.Errorf("jobs = %d/%d, want 1/1", p.shards[0].jobs, p.shards[1].jobs)
	}
}

// TestShardPoolCancelWhileQueued: cancelling a submitter whose job is
// still queued withdraws the job; it never runs.
func TestShardPoolCancelWhileQueued(t *testing.T) {
	p := newShardPool(1, nil)
	defer p.close()
	waitParked(t, p)

	release := make(chan struct{})
	blockerDone := make(chan struct{})
	go func() {
		defer close(blockerDone)
		submitFunc(t, p, 0, func() bool { <-release; return true })
	}()
	// Wait for the blocker to be running, then queue a second job behind it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		p.mu.Lock()
		running := !p.shards[0].waiting && p.shards[0].depth() == 0
		p.mu.Unlock()
		if running {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	ran := false
	j := &shardJob{kind: jobFunc, fn: func() bool { ran = true; return true }, shard: 0, done: make(chan struct{}, 1)}
	go func() { errc <- p.submit(ctx, j) }()
	for {
		p.mu.Lock()
		queued := p.shards[0].depth() == 1
		p.mu.Unlock()
		if queued {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second job never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("submit returned %v, want context.Canceled", err)
	}
	close(release)
	<-blockerDone
	if ran {
		t.Fatal("withdrawn job ran anyway")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if d := p.shards[0].depth(); d != 0 {
		t.Fatalf("queue depth %d after withdrawal, want 0", d)
	}
}

// TestRunOnShardZeroAlloc: steady-state dispatch through the connection's
// embedded job record must not allocate — the job, its completion channel,
// and the queue slots are all reused.
func TestRunOnShardZeroAlloc(t *testing.T) {
	b := &Blockserver{Shards: 1}
	b.init()
	defer b.pool.close()
	sc := &srvConn{affinity: 0}
	sc.job.fn = func() bool { return true }
	ctx := context.Background()
	run := func() {
		ok, err := b.runOnShard(ctx, sc, jobFunc, nil)
		if err != nil || !ok {
			t.Fatalf("runOnShard: ok=%v err=%v", ok, err)
		}
	}
	run() // warm up: allocate the done channel and queue backing
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Fatalf("shard dispatch allocates %.1f per request, want 0", allocs)
	}
}

// TestShardStatsKeys: the snapshot surfaces per-shard queue depths and
// steal counters alongside the writev batch count.
func TestShardStatsKeys(t *testing.T) {
	b := &Blockserver{Shards: 2}
	b.init()
	defer b.pool.close()
	snap := b.StatsSnapshot()
	if snap["shards"] != 2 {
		t.Fatalf("shards = %d, want 2", snap["shards"])
	}
	for _, k := range []string{"shard0_depth", "shard0_done", "shard0_steals",
		"shard1_depth", "shard1_done", "shard1_steals", "writevs"} {
		if _, ok := snap[k]; !ok {
			t.Errorf("snapshot missing %q: %v", k, snap)
		}
	}
}
