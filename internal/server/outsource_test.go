package server_test

import (
	"bytes"
	"encoding/binary"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"lepton/internal/server"
)

// outsourceFleet builds the router a blockserver outsources through and
// closes it after the servers registered later have shut down.
func outsourceFleet(t *testing.T, opts *server.FleetOptions, addrs ...string) *server.Fleet {
	t.Helper()
	f, err := server.NewFleet(addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// fakeLoadPeer serves the load-probe protocol with a fixed load value, so
// power-of-two-choices tests are deterministic instead of racing real work.
// Every other op is counted and answered StatusError, which sends an
// outsourcing blockserver down its local fallback.
func fakeLoadPeer(t *testing.T, load uint32) (addr string, jobs *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	jobs = new(atomic.Int64)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				for {
					op, _, err := server.ReadRequest(conn, nil)
					if err != nil {
						return
					}
					if op != server.OpLoad {
						jobs.Add(1)
						_ = server.WriteResponse(conn, server.StatusError, []byte("fake peer"))
						continue
					}
					var resp [4]byte
					binary.LittleEndian.PutUint32(resp[:], load)
					if server.WriteResponse(conn, server.StatusOK, resp[:]) != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return "tcp:" + ln.Addr().String(), jobs
}

// compressN sends n compressions of data to addr over one connection and
// checks each result round-trips.
func compressN(t *testing.T, addr string, data []byte, n int) {
	t.Helper()
	cl := dial(t, addr)
	for i := 0; i < n; i++ {
		comp, err := do(cl, server.OpCompress, data, 20*time.Second)
		if err != nil {
			t.Fatalf("compress %d: %v", i, err)
		}
		if back, err := decode(comp); err != nil || !bytes.Equal(back, data) {
			t.Fatalf("compress %d: round trip mismatch (%v)", i, err)
		}
	}
}

func TestOutsourcingToDedicated(t *testing.T) {
	// A dedicated worker and a frontend always over threshold: every
	// compress must be outsourced.
	worker := &server.Blockserver{}
	workerAddr := startServer(t, "tcp:127.0.0.1:0", worker)
	front := &server.Blockserver{
		Outsource:          outsourceFleet(t, nil, workerAddr),
		OutsourceThreshold: -1,
	}
	frontAddr := startServer(t, "tcp:127.0.0.1:0", front)

	compressN(t, frontAddr, gen(t, 3, 200, 150), 1)
	if front.StatsSnapshot()["outsourced"] == 0 {
		t.Fatal("frontend did not outsource")
	}
	if worker.StatsSnapshot()["compresses"] == 0 {
		t.Fatal("worker saw no work")
	}
}

// TestOutsourcedCompressNotReoutsourced: two blockservers, both always over
// threshold, each outsourcing to the other. The forwarded job must be
// compressed by the receiver instead of bouncing back and forth until the
// client's deadline.
func TestOutsourcedCompressNotReoutsourced(t *testing.T) {
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrA, addrB := "tcp:"+lnA.Addr().String(), "tcp:"+lnB.Addr().String()
	a := &server.Blockserver{Outsource: outsourceFleet(t, nil, addrB), OutsourceThreshold: -1}
	b := &server.Blockserver{Outsource: outsourceFleet(t, nil, addrA), OutsourceThreshold: -1}
	for _, s := range []struct {
		b  *server.Blockserver
		ln net.Listener
	}{{a, lnA}, {b, lnB}} {
		go func() { _ = s.b.Serve(s.ln) }()
		t.Cleanup(func() { s.b.Close() })
	}

	data := gen(t, 4, 160, 120)
	comp, err := oneShot(addrA, server.OpCompress, data, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if back, err := decode(comp); err != nil || !bytes.Equal(back, data) {
		t.Fatalf("outsourced round trip mismatch (%v)", err)
	}
	if got := a.StatsSnapshot()["outsourced"]; got != 1 {
		t.Errorf("A outsourced %d, want 1", got)
	}
	if got := b.StatsSnapshot()["outsourced"]; got != 0 {
		t.Errorf("B outsourced %d, want 0", got)
	}
	if got := b.StatsSnapshot()["compresses"]; got != 1 {
		t.Errorf("B compressed %d, want 1", got)
	}
}

func TestOutsourcingPowerOfTwoPrefersIdlePeer(t *testing.T) {
	// One peer reports a fixed high load, the other zero. With both
	// candidates probed, the idle peer must receive the bulk of the jobs.
	busyAddr, busyJobs := fakeLoadPeer(t, 8)
	idleAddr, idleJobs := fakeLoadPeer(t, 0)
	front := &server.Blockserver{
		Outsource:          outsourceFleet(t, &server.FleetOptions{Seed: 7}, busyAddr, idleAddr),
		OutsourceThreshold: -1,
	}
	frontAddr := startServer(t, "tcp:127.0.0.1:0", front)

	const trials = 40
	compressN(t, frontAddr, gen(t, 5, 64, 48), trials)
	if idle := idleJobs.Load(); idle < trials*60/100 {
		t.Fatalf("power-of-two did not prefer the idle peer: idle %d, busy %d", idle, busyJobs.Load())
	}
	// The fake peers reject every job, so each compress fell back locally.
	if got := front.StatsSnapshot()["outsourced"]; got != 0 {
		t.Fatalf("outsourced %d jobs the peers rejected", got)
	}
	if got := front.StatsSnapshot()["compresses"]; got != trials {
		t.Fatalf("compressed %d locally, want %d", got, trials)
	}
}

// TestOutsourceCountsProbeFailures: with one dead peer, selection must never
// route to it, must count its failed probes, and the owning blockserver's
// StatsSnapshot must surface the count.
func TestOutsourceCountsProbeFailures(t *testing.T) {
	live, liveJobs := fakeLoadPeer(t, 0)
	// A dead address: listen, grab the port, close.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "tcp:" + ln.Addr().String()
	_ = ln.Close()

	// No health loop: every failed probe below comes from target selection.
	opts := &server.FleetOptions{ProbeTimeout: 500 * time.Millisecond, HealthInterval: -1, Seed: 3}
	b := &server.Blockserver{Outsource: outsourceFleet(t, opts, live, dead), OutsourceThreshold: -1}
	addr := startServer(t, "tcp:127.0.0.1:0", b)
	compressN(t, addr, gen(t, 6, 64, 48), 20)

	snap := b.StatsSnapshot()
	if liveJobs.Load() == 0 {
		t.Fatal("never routed to the live peer")
	}
	if routed := snap["outsource_requests"]; routed != liveJobs.Load() || snap["outsource_dial_failures"] != 0 {
		t.Fatalf("routed %d jobs, %d to the live peer: the dead peer was selected (%v)", routed, liveJobs.Load(), snap)
	}
	if snap["outsource_probe_failures"] == 0 {
		t.Fatalf("snapshot missing probe failures: %v", snap)
	}
}

// TestOutsourceSelectionLatencyBoundedByOneTimeout: both candidate probes
// share one context, so outsourcing against two hung peers costs one probe
// timeout before the local fallback, not two (or the 30 s outsourcing cap).
func TestOutsourceSelectionLatencyBoundedByOneTimeout(t *testing.T) {
	// Two black-hole peers: listeners that accept and never respond, so the
	// probes genuinely wait out the shared timeout.
	blackhole := func() string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = ln.Close() })
		go func() {
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				defer c.Close()
			}
		}()
		return "tcp:" + ln.Addr().String()
	}
	data := gen(t, 7, 64, 48)
	plainAddr := startServer(t, "tcp:127.0.0.1:0", &server.Blockserver{})
	start := time.Now()
	compressN(t, plainAddr, data, 3)
	conversions := time.Since(start)

	opts := &server.FleetOptions{ProbeTimeout: 300 * time.Millisecond, Seed: 9}
	b := &server.Blockserver{Outsource: outsourceFleet(t, opts, blackhole(), blackhole()), OutsourceThreshold: -1}
	addr := startServer(t, "tcp:127.0.0.1:0", b)
	start = time.Now()
	compressN(t, addr, data, 3)
	elapsed := time.Since(start)
	// Three selections, each bounded by ~one 300ms shared timeout.
	if elapsed > 2*time.Second+conversions {
		t.Fatalf("3 compresses against hung peers took %v (%v converting); probes not sharing one timeout", elapsed, conversions)
	}
	if got := b.StatsSnapshot()["outsourced"]; got != 0 {
		t.Fatalf("outsourced %d jobs to hung peers", got)
	}
}
