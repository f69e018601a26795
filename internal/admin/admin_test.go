package admin_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lepton/internal/admin"
	"lepton/internal/imagegen"
	"lepton/internal/server"
	"lepton/internal/store"
)

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

func TestAdminEndpoints(t *testing.T) {
	s := admin.New()
	s.Register("alpha", func() map[string]int64 { return map[string]int64{"a": 1, "b": 2} })
	s.Register("beta", func() map[string]int64 { return map[string]int64{"x": -7} })
	addr, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	base := "http://" + addr

	for _, path := range []string{"/api/stats", "/debug/vars"} {
		var all map[string]map[string]int64
		getJSON(t, base+path, &all)
		if all["alpha"]["b"] != 2 || all["beta"]["x"] != -7 {
			t.Fatalf("%s: unexpected payload %v", path, all)
		}
	}
	var one map[string]int64
	getJSON(t, base+"/api/stats/alpha", &one)
	if one["a"] != 1 {
		t.Fatalf("single-source payload: %v", one)
	}
	resp, err := http.Get(base + "/api/stats/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown source: status %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(base + "/")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(page, []byte("alpha")) {
		t.Fatalf("status page: %d, contains-alpha=%v", resp.StatusCode, bytes.Contains(page, []byte("alpha")))
	}
	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
}

// TestShutdownReleasesPort is the regression test for the blockserverd
// debug-server lifecycle bug: before the fix the debug listener had no
// shutdown at all, so its port stayed bound through (and past) the drain
// window. The admin server must release the port by the time Shutdown
// returns.
func TestShutdownReleasesPort(t *testing.T) {
	s := admin.New()
	s.Register("x", func() map[string]int64 { return map[string]int64{"n": 1} })
	addr, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err != nil {
		t.Fatalf("pre-shutdown scrape: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The exact port must be immediately rebindable.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("port %s not released after Shutdown: %v", addr, err)
	}
	ln.Close()
	// Shutdown on a never-started (or already-stopped) server is a no-op.
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
	if err := admin.New().Shutdown(ctx); err != nil {
		t.Fatalf("shutdown of never-started server: %v", err)
	}
}

// TestSlowlorisHeaderTimeout pins the ReadHeaderTimeout fix: a connection
// that trickles half a request line must be closed by the server, not hold
// a worker forever the way the old http.ListenAndServe default did.
func TestSlowlorisHeaderTimeout(t *testing.T) {
	s := admin.New()
	s.ReadHeaderTimeout = 150 * time.Millisecond
	addr, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /api/st")); err != nil {
		t.Fatal(err)
	}
	// The hardened server must terminate the connection on its own (an
	// error response and/or a close). The old behavior — holding the
	// half-open connection indefinitely — shows up as our read deadline
	// expiring instead.
	start := time.Now()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	got, err := io.ReadAll(conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server held the half-open connection past ReadHeaderTimeout")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("connection only terminated after %v", elapsed)
	}
	if len(got) > 0 && bytes.Contains(got, []byte("200 OK")) {
		t.Fatalf("server answered a half-sent request: %q", got)
	}
}

// checkScrape decodes one JSON scrape and checks every fleet snapshot in
// it for self-consistency: each node is either up or down, and the down
// count is the sum of the per-node down flags.
func checkScrape(path string, body []byte, nodes int) error {
	if path == "/" {
		return nil // the HTML status page
	}
	var fleet map[string]int64
	if path == "/api/stats" || path == "/debug/vars" {
		var all map[string]map[string]int64
		if err := json.Unmarshal(body, &all); err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
		fleet = all["fleet"]
	} else if err := json.Unmarshal(body, &fleet); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	} else if path != "/api/stats/fleet" {
		return nil
	}
	if up, down := fleet["nodes_up"], fleet["nodes_down"]; up+down != int64(nodes) {
		return fmt.Errorf("%s: nodes_up %d + nodes_down %d != %d nodes", path, up, down, nodes)
	}
	var flags int64
	for i := 0; i < nodes; i++ {
		flags += fleet[fmt.Sprintf("node%d_down", i)]
	}
	if flags != fleet["nodes_down"] {
		return fmt.Errorf("%s: nodes_down %d but node<i>_down flags sum to %d", path, fleet["nodes_down"], flags)
	}
	return nil
}

// TestConcurrentScrapeUnderFleetTraffic is the bugfix-hunt pass over the
// scrape path, run under -race in CI: every counter the admin plane
// exposes (Fleet.StatsSnapshot with the health loop evicting a killed
// node, FleetStore counters, per-node Blockserver.StatsSnapshot including
// shard and store stats) is scraped concurrently with live conversion and
// store traffic plus a node kill and restart. Any counter read outside
// its atomics/owning lock shows up as a race report, and every fleet
// snapshot scraped must agree with itself about which nodes are down.
func TestConcurrentScrapeUnderFleetTraffic(t *testing.T) {
	const n = 3
	stores := make([]*store.Store, n)
	nodes := make([]*server.Blockserver, n)
	addrs := make([]string, n)
	for i := range nodes {
		stores[i] = store.New()
		nodes[i] = &server.Blockserver{Store: stores[i]}
		addr, err := server.ListenAndServe("tcp:127.0.0.1:0", nodes[i])
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = addr
	}
	fleet, err := server.NewFleet(addrs, &server.FleetOptions{
		HealthInterval: 20 * time.Millisecond,
		HedgeAfter:     50 * time.Millisecond,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	remote, err := store.NewRemote(fleet, 2)
	if err != nil {
		t.Fatal(err)
	}
	remote.ChunkSize = 16 << 10

	adm := admin.New()
	adm.Register("fleet", fleet.StatsSnapshot)
	adm.Register("store", remote.StatsSnapshot)
	for i, b := range nodes {
		adm.Register(fmt.Sprintf("node%d", i), b.StatsSnapshot)
	}
	admAddr, err := adm.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer adm.Shutdown(context.Background())

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	data, err := imagegen.Generate(3, 160, 120)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var trafficErrs atomic.Int64
	// Conversion + store traffic across the fleet.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil {
				comp, err := fleet.Compress(ctx, data)
				if err != nil {
					if ctx.Err() == nil {
						trafficErrs.Add(1)
					}
					continue
				}
				if _, err := fleet.Decompress(ctx, comp); err != nil && ctx.Err() == nil {
					trafficErrs.Add(1)
				}
				if h, err := remote.Put(ctx, comp); err == nil {
					if _, err := remote.GetCompressed(ctx, h); err != nil && ctx.Err() == nil {
						trafficErrs.Add(1)
					}
				}
			}
		}(w)
	}
	// Scrapers hammering every endpoint.
	var scrapes, scrapeErrs atomic.Int64
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			paths := []string{"/api/stats", "/debug/vars", "/api/stats/fleet", "/api/stats/node0", "/"}
			for i := 0; ctx.Err() == nil; i++ {
				resp, err := http.Get("http://" + admAddr + paths[i%len(paths)])
				if err != nil {
					if ctx.Err() == nil {
						scrapeErrs.Add(1)
					}
					continue
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					scrapeErrs.Add(1)
				} else if err := checkScrape(paths[i%len(paths)], body, n); err != nil {
					t.Error(err)
					scrapeErrs.Add(1)
				}
				scrapes.Add(1)
			}
		}()
	}

	// Mid-run: hard-kill a node (the health loop's eviction writes race the
	// scrapers' StatsSnapshot reads if any counter is unprotected), then
	// restart it on the same port for the readmission path.
	time.Sleep(300 * time.Millisecond)
	_ = nodes[2].Close()
	deadline := time.Now().Add(5 * time.Second)
	for !fleet.NodeDown(addrs[2]) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	nodes[2] = &server.Blockserver{Store: stores[2]}
	if _, err := server.ListenAndServe(addrs[2], nodes[2]); err != nil {
		t.Fatalf("restart: %v", err)
	}
	time.Sleep(300 * time.Millisecond)

	cancel()
	wg.Wait()
	if scrapes.Load() == 0 {
		t.Fatal("no scrapes completed")
	}
	if e := scrapeErrs.Load(); e > 0 {
		t.Fatalf("%d scrape failures during fleet traffic", e)
	}
	// Final consistency: the snapshot must see the eviction and both nodes.
	snap := fleet.StatsSnapshot()
	if snap["evictions"] == 0 {
		t.Fatalf("fleet snapshot missed the eviction: %v", snap)
	}
	for _, b := range nodes {
		_ = b.Close()
	}
}
