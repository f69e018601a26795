package server

import (
	"runtime"
	"testing"
)

// TestFleetCountsBeforePublishing: a reader that sees a node's new health
// state also sees the eviction or readmission count that goes with it.
// Each round flips the state on another goroutine while this one spins on
// it, then reads the counter at once.
func TestFleetCountsBeforePublishing(t *testing.T) {
	f, err := NewFleet([]string{"tcp:127.0.0.1:1"}, &FleetOptions{HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := f.nodes[0]
	flip := func(down bool, want int64, counter string) {
		done := make(chan struct{})
		go func() {
			defer close(done)
			if down {
				f.evict(n, "test")
			} else {
				f.readmit(n)
			}
		}()
		for n.isDown() != down {
			runtime.Gosched()
		}
		c := f.stats.Snapshot()[counter]
		<-done
		if c != want {
			t.Fatalf("node seen down=%v with %s = %d, want %d", down, counter, c, want)
		}
	}
	for round := int64(1); round <= 20000; round++ {
		flip(true, round, "evictions")
		flip(false, round, "readmissions")
	}
}
