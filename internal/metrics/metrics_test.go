package metrics

import (
	"maps"
	"sync"
	"testing"
)

func TestRollUpAndSnapshot(t *testing.T) {
	root := New(nil)
	node := New(root, "requests", "errors")
	a, b := New(node), New(node)

	a.Add("requests", 2)
	b.Add("requests", 3)
	ga, gb := a.Gauge("window"), b.Gauge("window")
	ga.Add(10)
	gb.Add(5)
	ga.Add(-10)
	gb.Add(-5)

	want := map[*Set]map[string]int64{
		a:    {"requests": 2, "window_in_use": 0, "window_peak": 10},
		b:    {"requests": 3, "window_in_use": 0, "window_peak": 5},
		node: {"requests": 5, "errors": 0, "window_in_use": 0, "window_peak": 15},
		root: {"requests": 5, "window_in_use": 0, "window_peak": 15},
	}
	for s, w := range want {
		if got := s.Snapshot(); !maps.Equal(got, w) {
			t.Errorf("snapshot %v, want %v", got, w)
		}
	}
}

func TestGaugeHandleIsTheNamedGauge(t *testing.T) {
	root := New(nil)
	s := New(root)
	if g := s.Gauge("window"); s.Gauge("window") != g || g.parent != root.Gauge("window") {
		t.Fatal("a second lookup returned a different or unlinked handle")
	}
}

func TestNilSetIgnoresUpdates(t *testing.T) {
	var s *Set
	s.Add("requests", 1)
	s.Gauge("window").Add(1)
}

func TestConcurrentUpdates(t *testing.T) {
	root := New(nil)
	const workers, n = 4, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := New(root)
			for i := 0; i < n; i++ {
				s.Add("ops", 1)
				s.Gauge("held").Add(8)
				s.Gauge("held").Add(-8)
				_ = root.Snapshot()
			}
		}()
	}
	wg.Wait()
	snap := root.Snapshot()
	if snap["ops"] != workers*n || snap["held_in_use"] != 0 {
		t.Fatalf("snapshot %v", snap)
	}
	if p := snap["held_peak"]; p < 8 || p > 8*workers {
		t.Fatalf("held_peak = %d, want 8..%d", p, 8*workers)
	}
}
