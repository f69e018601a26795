package server

import (
	"context"
	"sync"
	"testing"
	"time"
)

// testJob returns a job that runs fn on a worker.
func testJob(fn func() bool) *shardJob {
	return &shardJob{fn: fn, done: make(chan struct{}, 1)}
}

// submitAsync submits j from a new goroutine; the returned channel yields
// submit's error once the job has run or been withdrawn.
func submitAsync(ctx context.Context, p *workerPool, j *shardJob) <-chan error {
	errc := make(chan error, 1)
	go func() { errc <- p.submit(ctx, j) }()
	return errc
}

// waitDepth blocks until the pool's queue holds exactly n jobs.
func waitDepth(t *testing.T, p *workerPool, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		p.mu.Lock()
		d := p.depth()
		p.mu.Unlock()
		if d == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d, want %d", d, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func recv(t *testing.T, c <-chan int, what string) int {
	t.Helper()
	select {
	case v := <-c:
		return v
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		return 0
	}
}

// TestShardPoolArrivalOrder: with every worker busy, queued jobs start in
// the order they were submitted, one per worker that frees up.
func TestShardPoolArrivalOrder(t *testing.T) {
	const workers, queued = 2, 5
	p := newWorkerPool(workers, nil)
	defer p.close()

	// Job i reports its start on started and holds its worker until
	// release[i] closes. Jobs 0..workers-1 pin every worker.
	started := make(chan int, workers+queued)
	release := make([]chan struct{}, workers+queued)
	var errs []<-chan error
	submit := func(i int) {
		release[i] = make(chan struct{})
		errs = append(errs, submitAsync(context.Background(), p, testJob(func() bool {
			started <- i
			<-release[i]
			return true
		})))
	}
	for i := 0; i < workers; i++ {
		submit(i)
		recv(t, started, "a blocker to start")
	}
	for i := workers; i < workers+queued; i++ {
		submit(i)
		waitDepth(t, p, i-workers+1)
	}

	// Free one worker at a time: each time, the oldest queued job starts.
	for i := workers; i < workers+queued; i++ {
		close(release[i-workers])
		if got := recv(t, started, "a queued job to start"); got != i {
			t.Fatalf("job %d started after job %d was released; want job %d (arrival order)", got, i-workers, i)
		}
	}
	for i := queued; i < workers+queued; i++ {
		close(release[i])
	}
	for _, e := range errs {
		if err := <-e; err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.done != workers+queued || p.depth() != 0 {
		t.Fatalf("done %d, depth %d; want %d, 0", p.done, p.depth(), workers+queued)
	}
}

// TestShardPoolNoStranding: with one worker pinned by a running job, a
// second job completes on another worker.
func TestShardPoolNoStranding(t *testing.T) {
	p := newWorkerPool(2, nil)
	defer p.close()

	started := make(chan struct{})
	release := make(chan struct{})
	blocker := submitAsync(context.Background(), p, testJob(func() bool {
		close(started)
		<-release
		return true
	}))
	<-started

	j := testJob(func() bool { return true })
	select {
	case err := <-submitAsync(context.Background(), p, j):
		if err != nil || !j.ok {
			t.Fatalf("second job: err %v, ok %v", err, j.ok)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("job stranded behind a pinned worker while another was idle")
	}
	p.mu.Lock()
	done := p.done
	p.mu.Unlock()
	if done != 1 {
		t.Fatalf("done %d with the blocker still running, want 1", done)
	}
	close(release)
	if err := <-blocker; err != nil {
		t.Fatal(err)
	}
}

// TestShardPoolCancelWhileQueued: cancelling a submitter whose job is
// still queued withdraws the job; it never runs.
func TestShardPoolCancelWhileQueued(t *testing.T) {
	p := newWorkerPool(1, nil)
	defer p.close()

	started := make(chan struct{})
	release := make(chan struct{})
	blocker := submitAsync(context.Background(), p, testJob(func() bool {
		close(started)
		<-release
		return true
	}))
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	ran := false
	errc := submitAsync(ctx, p, testJob(func() bool { ran = true; return true }))
	waitDepth(t, p, 1)
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("submit returned %v, want context.Canceled", err)
	}
	close(release)
	if err := <-blocker; err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("withdrawn job ran anyway")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if d := p.depth(); d != 0 {
		t.Fatalf("queue depth %d after withdrawal, want 0", d)
	}
}

// TestShardPoolConcurrentSubmitters: submitters on every side of the
// queue at once, a third of them cancelled while their jobs wait. Every
// job either runs once or is withdrawn, and the queue ends empty.
func TestShardPoolConcurrentSubmitters(t *testing.T) {
	const submitters, each = 8, 50
	p := newWorkerPool(3, nil)
	defer p.close()
	var mu sync.Mutex
	ran, withdrawn := 0, 0
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			j := testJob(nil)
			for i := 0; i < each; i++ {
				j.fn = func() bool {
					mu.Lock()
					ran++
					mu.Unlock()
					return true
				}
				ctx, cancel := context.WithCancel(context.Background())
				if (s+i)%3 == 0 {
					cancel()
				}
				err := p.submit(ctx, j)
				cancel()
				if err != nil {
					mu.Lock()
					withdrawn++
					mu.Unlock()
				}
			}
		}(s)
	}
	wg.Wait()
	p.mu.Lock()
	defer p.mu.Unlock()
	if ran+withdrawn != submitters*each || int64(ran) != p.done || p.depth() != 0 {
		t.Fatalf("ran %d + withdrawn %d, want %d; done %d; depth %d",
			ran, withdrawn, submitters*each, p.done, p.depth())
	}
}

// TestRunOnShardZeroAlloc: steady-state dispatch through the connection's
// embedded job record must not allocate — the job, its completion channel,
// and the queue slots are all reused.
func TestRunOnShardZeroAlloc(t *testing.T) {
	b := &Blockserver{Shards: 1}
	b.init()
	defer b.pool.close()
	sc := &srvConn{}
	sc.job.fn = func() bool { return true }
	ctx := context.Background()
	run := func() {
		if !b.runOnShard(ctx, sc, 0, nil) {
			t.Fatal("runOnShard failed")
		}
	}
	run() // warm up: allocate the done channel and queue backing
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Fatalf("dispatch allocates %.1f per request, want 0", allocs)
	}
}

// TestShardStatsKeys: the snapshot surfaces the worker count, the queue
// depth and the completed-job count alongside the writev batch count.
func TestShardStatsKeys(t *testing.T) {
	b := &Blockserver{Shards: 2}
	b.init()
	defer b.pool.close()
	snap := b.StatsSnapshot()
	if snap["workers"] != 2 {
		t.Fatalf("workers = %d, want 2", snap["workers"])
	}
	for _, k := range []string{"queue_depth", "jobs_done", "writevs"} {
		if _, ok := snap[k]; !ok {
			t.Errorf("snapshot missing %q: %v", k, snap)
		}
	}
}
