package server_test

import (
	"context"
	"testing"
	"time"

	"lepton/internal/server"
)

func TestRTTEstimatorInitialRTO(t *testing.T) {
	var e server.RTTEstimator
	if got := e.RTO(); got != time.Second {
		t.Fatalf("pre-sample RTO = %v, want 1s", got)
	}
	st := e.Stat()
	if st.Samples != 0 || st.SRTT != 0 {
		t.Fatalf("zero estimator has state: %+v", st)
	}
}

func TestRTTEstimatorJacobson(t *testing.T) {
	var e server.RTTEstimator
	e.Observe(100 * time.Millisecond)
	st := e.Stat()
	if st.SRTT != 100*time.Millisecond || st.RTTVar != 50*time.Millisecond {
		t.Fatalf("first sample seeding wrong: %+v", st)
	}
	// RFC 6298: RTO = srtt + 4*rttvar.
	if st.RTO != 300*time.Millisecond {
		t.Fatalf("RTO after first sample = %v, want 300ms", st.RTO)
	}
	// A long run of identical samples converges srtt to the sample and
	// rttvar toward zero, dragging the RTO down to the clamp floor.
	for i := 0; i < 100; i++ {
		e.Observe(100 * time.Millisecond)
	}
	st = e.Stat()
	if st.SRTT < 99*time.Millisecond || st.SRTT > 101*time.Millisecond {
		t.Fatalf("srtt did not converge: %v", st.SRTT)
	}
	if st.RTTVar > 5*time.Millisecond {
		t.Fatalf("rttvar did not decay: %v", st.RTTVar)
	}
	if st.Samples != 101 {
		t.Fatalf("samples = %d, want 101", st.Samples)
	}
}

func TestRTTEstimatorBackoffAndRecovery(t *testing.T) {
	var e server.RTTEstimator
	e.Observe(50 * time.Millisecond)
	base := e.RTO()
	e.Backoff()
	if got := e.RTO(); got != 2*base {
		t.Fatalf("one backoff: RTO = %v, want %v", got, 2*base)
	}
	// Repeated backoff saturates at the clamp ceiling.
	for i := 0; i < 20; i++ {
		e.Backoff()
	}
	if got := e.RTO(); got != server.DefaultRTOMax {
		t.Fatalf("saturated RTO = %v, want clamp max %v", got, server.DefaultRTOMax)
	}
	// One fresh sample discards the backoff: the peer answers again.
	e.Observe(50 * time.Millisecond)
	if got := e.RTO(); got > base {
		t.Fatalf("sample did not reset backoff: RTO = %v", got)
	}
}

func TestRTTEstimatorClampFloor(t *testing.T) {
	var e server.RTTEstimator
	for i := 0; i < 50; i++ {
		e.Observe(10 * time.Microsecond) // loopback-fast
	}
	if got := e.RTO(); got < server.DefaultRTOMin {
		t.Fatalf("RTO %v under the floor %v", got, server.DefaultRTOMin)
	}
}

// TestFleetExportsPacerInputs: the per-node probe RTT estimate, eviction
// count, and down flag must appear in StatsSnapshot.
func TestFleetExportsPacerInputs(t *testing.T) {
	nodes := startTestFleet(t, 2)
	f := newTestFleet(t, nodes, &server.FleetOptions{HealthInterval: -1})

	ctx := context.Background()
	for _, nd := range nodes {
		if _, err := f.ProbeNode(ctx, nd.addr); err != nil {
			t.Fatalf("probe %s: %v", nd.addr, err)
		}
	}

	snap := f.StatsSnapshot()
	for _, key := range []string{
		"node0_srtt_us", "node0_rto_us", "node0_rtt_samples",
		"node0_evictions", "node0_down", "node1_rtt_samples",
	} {
		if _, present := snap[key]; !present {
			t.Fatalf("StatsSnapshot missing %q: %v", key, snap)
		}
	}
	if snap["node0_rtt_samples"] == 0 {
		t.Fatalf("node0 probe RTT not recorded: %v", snap)
	}
	if snap["node0_down"] != 0 {
		t.Fatalf("healthy node reported down: %v", snap)
	}

	// Kill node 1 and address it directly so the dial failure evicts it;
	// the per-node eviction counter and down flag must follow.
	nodes[1].kill()
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, _ = f.DoNode(ctx, nodes[1].addr, server.OpCompress, []byte("x"))
		snap = f.StatsSnapshot()
		if snap["node1_evictions"] > 0 && snap["node1_down"] == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("killed node never showed in stats: %v", snap)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
