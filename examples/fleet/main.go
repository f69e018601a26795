// Fleet demonstrates the multi-node deployment: four blockservers on
// loopback TCP, a lepton.Fleet routing conversions across them by
// power-of-two load probes with retries and hedging, and a
// lepton.FleetStore placing replicated, content-addressed chunks over the
// same nodes. Midway, one node is hard-killed: the fleet retries its
// in-flight work elsewhere, evicts the dead node, and every stored file
// stays retrievable byte-identically from the surviving replicas — then
// the node restarts, is re-admitted by the health loop, and the chunks
// it missed are healed (by read-repair with in-memory stores; with
// -data-dir the node restarts against its intact disk and a warm-restart
// re-announce tops it up proactively, no client read involved).
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log"
	"path/filepath"
	"sync"
	"time"

	"lepton"
	"lepton/internal/admin"
	"lepton/internal/diskstore"
	"lepton/internal/imagegen"
	"lepton/internal/server"
	"lepton/internal/store"
)

func main() {
	dataDir := flag.String("data-dir", "",
		"parent directory for per-node durable stores (default: in-memory"+
			" stores; a restarted node then comes back empty)")
	adminAddr := flag.String("admin-addr", "",
		"optional HTTP address for the fleet admin plane: a status page plus"+
			" /api/stats over the router, store, and per-node counters")
	flag.Parse()

	ctx := context.Background()

	// Four blockservers, each with its own chunk store — four machines.
	// With -data-dir each store is a disk-backed segment log under its own
	// subdirectory, so a "machine" can reboot without losing its chunks.
	const n = 4
	newNodeStore := func(i int) *store.Store {
		if *dataDir == "" {
			return store.New()
		}
		ds, err := diskstore.Open(filepath.Join(*dataDir, fmt.Sprintf("node%d", i)), diskstore.Options{})
		if err != nil {
			log.Fatal(err)
		}
		return store.NewWithBackend(ds)
	}
	nodes := make([]*server.Blockserver, n)
	stores := make([]*store.Store, n)
	addrs := make([]string, n)
	for i := range nodes {
		stores[i] = newNodeStore(i)
		nodes[i] = &server.Blockserver{Store: stores[i]}
		addr, err := server.ListenAndServe("tcp:127.0.0.1:0", nodes[i])
		if err != nil {
			log.Fatal(err)
		}
		addrs[i] = addr
	}
	fmt.Printf("fleet: %v\n", addrs)

	fleet, err := lepton.DialFleet(addrs, &lepton.FleetOptions{
		HedgeAfter:     200 * time.Millisecond,
		HealthInterval: 100 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer fleet.Close()

	// The management plane: one HTTP server over the router's, the store's,
	// and every node's counters — what an operator watches while the demo's
	// kill/restart sequence plays out. nodeMu covers the restart below,
	// where a node's Blockserver is replaced while scrapes may be reading.
	var nodeMu sync.Mutex
	var adm *admin.Server
	if *adminAddr != "" {
		adm = admin.New()
		adm.Register("fleet", fleet.StatsSnapshot)
		for i := range nodes {
			adm.Register(fmt.Sprintf("node%d", i), func() map[string]int64 {
				nodeMu.Lock()
				b := nodes[i]
				nodeMu.Unlock()
				return b.StatsSnapshot()
			})
		}
		bound, err := adm.ListenAndServe(*adminAddr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("admin plane on http://%s/ (JSON at /api/stats)\n", bound)
	}

	// Concurrent conversion roundtrips spread across the nodes.
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data, err := imagegen.Generate(int64(i+1), 200, 150)
			if err != nil {
				log.Fatal(err)
			}
			comp, err := fleet.Compress(ctx, data)
			if err != nil {
				log.Fatalf("compress %d: %v", i, err)
			}
			back, err := fleet.Decompress(ctx, comp)
			if err != nil {
				log.Fatalf("decompress %d: %v", i, err)
			}
			if !bytes.Equal(back, data) {
				log.Fatalf("roundtrip %d not byte-identical", i)
			}
		}(i)
	}
	wg.Wait()
	for i, b := range nodes {
		s := b.StatsSnapshot()
		fmt.Printf("node %d served %d conversions\n", i, s["compresses"]+s["decompresses"])
	}

	// A replicated file across the fleet: every chunk on 2 of 4 nodes.
	fs, err := lepton.NewFleetStore(fleet, &lepton.FleetStoreOptions{Replication: 2, ChunkSize: 16 << 10})
	if err != nil {
		log.Fatal(err)
	}
	if adm != nil {
		adm.Register("store", fs.StatsSnapshot)
	}
	file, err := imagegen.Generate(99, 1024, 768)
	if err != nil {
		log.Fatal(err)
	}
	ref, err := fs.PutFile(ctx, file)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stored %d bytes as %d chunks x%d replicas\n", len(file), len(ref.Chunks), 2)

	// Kill node 0 — listener, store and all: the fleet must evict it and
	// keep serving, and the file must survive on the remaining replicas.
	_ = nodes[0].Close()
	_ = stores[0].Close()
	deadline := time.Now().Add(5 * time.Second)
	for !fleet.NodeDown(addrs[0]) && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	fmt.Printf("killed %s; fleet: %v up / %v down\n", addrs[0],
		fleet.StatsSnapshot()["nodes_up"], fleet.StatsSnapshot()["nodes_down"])

	back, err := fs.GetFile(ctx, ref)
	if err != nil {
		log.Fatalf("get after node kill: %v", err)
	}
	if !bytes.Equal(back, file) {
		log.Fatal("file changed after node kill")
	}
	fmt.Println("file retrieved byte-identically after node kill")

	// A second file stored while degraded, then the node returns (same
	// port) and read-repair heals the chunks it missed.
	file2, err := imagegen.Generate(100, 384, 288)
	if err != nil {
		log.Fatal(err)
	}
	ref2, err := fs.PutFile(ctx, file2)
	if err != nil {
		log.Fatal(err)
	}
	nodeMu.Lock()
	stores[0] = newNodeStore(0) // same data dir: the segment log replays
	nodes[0] = &server.Blockserver{Store: stores[0]}
	nodeMu.Unlock()
	if _, err := server.ListenAndServe(addrs[0], nodes[0]); err != nil {
		log.Fatal(err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for fleet.NodeDown(addrs[0]) && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	fmt.Printf("node restarted and readmitted (readmissions=%d)\n",
		fleet.StatsSnapshot()["readmissions"])

	if *dataDir != "" {
		// Warm restart: the disk kept every chunk from before the kill, and
		// the re-announce proactively copies over whatever placement
		// assigned the node while it was down — healing without waiting for
		// a client read to stumble on the hole.
		held, repaired, err := fs.Reannounce(ctx, addrs[0])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("warm restart: %d chunks replayed from disk; reannounce held=%d repaired=%d\n",
			stores[0].Len(), held, repaired)
	}

	back2, err := fs.GetFile(ctx, ref2)
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(back2, file2) {
		log.Fatal("degraded-write file changed after the node rejoined")
	}
	// Read-repair is lazy: a rejoined replica is healed when a read finds
	// it missing, which happens for chunks where it is the first replica
	// tried (placement depends on the nodes' addresses, so the count
	// varies run to run).
	firstReplica := 0
	for _, h := range ref2.Chunks {
		if fs.Placement(h)[0] == addrs[0] {
			firstReplica++
		}
	}
	fmt.Printf("degraded-write file retrieved byte-identically: read repairs=%d (chunks fronted by the rejoined node: %d)\n",
		fs.StatsSnapshot()["read_repairs"], firstReplica)

	fmt.Printf("router: %v\n", fleet.StatsSnapshot())
	if adm != nil {
		// Graceful shutdown releases the admin port before the nodes go
		// away — the same drain discipline blockserverd applies.
		sctx, scancel := context.WithTimeout(ctx, 5*time.Second)
		if err := adm.Shutdown(sctx); err != nil {
			log.Printf("admin shutdown: %v", err)
		}
		scancel()
	}
	for _, b := range nodes {
		_ = b.Close()
	}
	for _, s := range stores {
		_ = s.Close()
	}
}
