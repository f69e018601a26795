// Command blockserverd runs a Lepton blockserver: it accepts compression
// and decompression requests over a Unix-domain socket or TCP, and can
// outsource work to peers or a dedicated cluster when oversubscribed
// (paper §5.5): -peers lists either, and compressions arriving beyond
// -threshold are routed there through a server.Fleet.
//
// A fleet is N of these processes, each started with -store (so the
// store-backed chunk operations are enabled) and -peers listing the other
// members (so oversubscribed conversions outsource by power-of-two load
// probes). Clients route across the members with lepton.DialFleet and
// place replicated chunks with lepton.NewFleetStore; see the README's
// "Running a fleet" section and examples/fleet.
//
// SIGINT/SIGTERM trigger a graceful drain: the listener closes, requests
// already in flight finish, and stragglers are force-cancelled when the
// drain timeout expires — the rollout/rollback discipline of §5.7. A
// second signal forces an immediate shutdown.
//
// Usage:
//
//	blockserverd -listen unix:/tmp/lepton.sock
//	blockserverd -listen tcp:0.0.0.0:7731 -peers tcp:lepton1:7731,tcp:lepton2:7731
//	blockserverd -listen tcp::7731 -peers tcp:peer1:7731,tcp:peer2:7731 -threshold 3
//	blockserverd -listen tcp::7731 -store -peers tcp:peer1:7731,tcp:peer2:7731
//	blockserverd -listen tcp::7731 -data-dir /var/lib/lepton -sync-interval 50ms
//	blockserverd -listen tcp::7731 -request-timeout 30s -drain-timeout 10s
//	blockserverd -listen tcp::7731 -debug-addr 127.0.0.1:7732
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"lepton/internal/admin"
	"lepton/internal/diskstore"
	"lepton/internal/server"
	"lepton/internal/store"
)

// newDebugServer builds the daemon's debug/admin HTTP server: the
// blockserver's counters under /debug/vars (the shape the old expvar
// endpoint served) and /api/stats, on an owned *http.Server with a private
// mux and a ReadHeaderTimeout — never http.DefaultServeMux, never
// unshutdownable. Kept as a named helper so the lifecycle is testable: the
// drain path must Shutdown it and release the port (see main_test.go).
func newDebugServer(b *server.Blockserver) *admin.Server {
	adm := admin.New()
	adm.Register("blockserver", b.StatsSnapshot)
	return adm
}

func main() {
	listen := flag.String("listen", "unix:/tmp/lepton.sock", "listen address (unix:<path> or tcp:<host:port>)")
	peers := flag.String("peers", "",
		"comma-separated outsourcing targets: peer blockservers (to-self) or a dedicated cluster")
	threshold := flag.Int("threshold", 3, "outsource when more conversions than this are in flight")
	shards := flag.Int("shards", 0,
		"worker shards, each with a private codec pinned to a connection set;"+
			" 0 = one per core (GOMAXPROCS)")
	requestTimeout := flag.Duration("request-timeout", 0,
		"per-request deadline; conversions running longer are cancelled (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second,
		"how long a graceful shutdown waits for in-flight requests before cancelling them")
	debugAddr := flag.String("debug-addr", "",
		"optional HTTP address serving /debug/vars with conversion counters,"+
			" in-flight requests, and peak streamed-coefficient window bytes")
	withStore := flag.Bool("store", false,
		"enable the store-backed chunk operations (OpPutChunk*/OpGetChunk*), making"+
			" this node a member of a distributed fleet store")
	chunkSize := flag.Int("store-chunk-size", 0,
		"chunk size in bytes for server-side uploads; 0 = 4 MiB")
	shutoff := flag.String("store-shutoff", "",
		"shutoff-switch path: if this file exists the store bypasses Lepton and"+
			" deflates instead (§5.7 kill switch; production used /dev/shm)")
	dataDir := flag.String("data-dir", "",
		"directory for the durable chunk store (implies -store): chunks are"+
			" appended to CRC-framed segment logs and survive restarts; empty"+
			" keeps the in-memory store")
	syncInterval := flag.Duration("sync-interval", 0,
		"disk-store fsync batching: 0 group-commits every put before acking,"+
			" >0 syncs at most that often (bounded loss window), <0 never syncs")
	segmentSize := flag.Int64("segment-size", 0,
		"disk-store segment target size in bytes before rotation; 0 = 64 MiB")
	compactInterval := flag.Duration("compact-interval", 0,
		"how often the disk store looks for garbage-heavy segments to rewrite;"+
			" 0 = 15s, <0 disables background compaction")
	flag.Parse()

	b := &server.Blockserver{
		OutsourceThreshold: *threshold,
		Shards:             *shards,
		RequestTimeout:     *requestTimeout,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "blockserverd: "+format+"\n", args...)
		},
	}
	var disk *diskstore.Store
	if *withStore || *dataDir != "" {
		var st *store.Store
		if *dataDir != "" {
			var err error
			disk, err = diskstore.Open(*dataDir, diskstore.Options{
				SyncInterval:      *syncInterval,
				SegmentTargetSize: *segmentSize,
				CompactInterval:   *compactInterval,
				Logf: func(format string, args ...any) {
					fmt.Fprintf(os.Stderr, "blockserverd: "+format+"\n", args...)
				},
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "blockserverd:", err)
				os.Exit(1)
			}
			st = store.NewWithBackend(disk)
			fmt.Printf("durable store in %s (%d chunks replayed)\n", *dataDir, disk.Len())
		} else {
			st = store.New()
		}
		st.ChunkSize = *chunkSize
		st.ShutoffPath = *shutoff
		b.Store = st
	}
	if *peers != "" {
		fleet, err := server.NewFleet(strings.Split(*peers, ","), nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "blockserverd:", err)
			os.Exit(1)
		}
		b.Outsource = fleet
	}

	addr, err := server.ListenAndServe(*listen, b)
	if err != nil {
		fmt.Fprintln(os.Stderr, "blockserverd:", err)
		os.Exit(1)
	}
	fmt.Printf("blockserverd listening on %s (threshold %d)\n", addr, *threshold)

	var adm *admin.Server
	if *debugAddr != "" {
		// The snapshot source reads counters plus the row-window memory
		// gauges on every scrape, making production memory behavior (the
		// §5.1 streaming ceiling) observable without instrumentation.
		adm = newDebugServer(b)
		dbg, err := adm.ListenAndServe(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "blockserverd:", err)
			os.Exit(1)
		}
		fmt.Printf("debug vars on http://%s/debug/vars\n", dbg)
	}

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	st := b.StatsSnapshot()
	fmt.Printf("draining (up to %v): compresses=%d decompresses=%d outsourced=%d errors=%d cancelled=%d\n",
		*drainTimeout, st["compresses"], st["decompresses"], st["outsourced"], st["errors"], st["cancelled"])

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	go func() {
		// A second signal abandons the drain.
		<-sig
		cancel()
	}()
	if adm != nil {
		// The debug port is part of the drain contract: release it now so a
		// replacement process (same machine, rolling restart) can bind it,
		// instead of holding it until exit as the old ListenAndServe did.
		if err := adm.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "blockserverd: debug server shutdown:", err)
		}
	}
	err = b.Shutdown(ctx)
	if b.Outsource != nil {
		// After the drain: no compression can still be outsourcing.
		_ = b.Outsource.Close()
	}
	if disk != nil {
		// After the drain: no request can still be appending, so the close
		// fsync seals the log cleanly.
		if cerr := disk.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "blockserverd: closing disk store:", cerr)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "blockserverd: drain incomplete, stragglers cancelled: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("drained cleanly")
}
