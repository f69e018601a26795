// Blockserver demonstrates the serving path of §5.5: a frontend
// blockserver on a Unix-domain socket (the production transport), a
// dedicated outsourcing worker on TCP, and outsourcing kicking in when the
// frontend is oversubscribed. Every request runs under a context, and both
// servers finish with a graceful drain (Shutdown), the §5.7 rollout
// discipline.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"
	"time"

	"lepton/internal/imagegen"
	"lepton/internal/server"
)

func main() {
	dir, err := os.MkdirTemp("", "lepton-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// A dedicated Lepton worker on TCP — the machines "packed full of
	// work" in the paper's best strategy.
	worker := &server.Blockserver{}
	workerAddr, err := server.ListenAndServe("tcp:127.0.0.1:0", worker)
	if err != nil {
		log.Fatal(err)
	}

	// The frontend blockserver on a Unix socket, outsourcing to the worker
	// when more than one conversion is already in flight.
	workers, err := server.NewFleet([]string{workerAddr}, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer workers.Close()
	front := &server.Blockserver{Outsource: workers, OutsourceThreshold: 1}
	sock := filepath.Join(dir, "lepton.sock")
	frontAddr, err := server.ListenAndServe("unix:"+sock, front)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("frontend on %s\nworker on %s\n", frontAddr, workerAddr)

	// Eight clients upload photos concurrently — a burst like a camera
	// roll syncing. Each client holds one persistent connection, issues
	// all of its requests on it under a per-upload deadline, and the
	// server's request loop serves them back to back with no reconnects.
	// If a client walked away (cancelled its context), the server would
	// abort that conversion at its next checkpoint instead of finishing
	// work nobody wants.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			cl, err := server.DialContext(ctx, frontAddr)
			if err != nil {
				log.Fatalf("client %d dial: %v", i, err)
			}
			defer cl.Close()
			data, err := imagegen.Generate(int64(i), 512, 384)
			if err != nil {
				log.Fatal(err)
			}
			comp, err := cl.Compress(ctx, data)
			if err != nil {
				log.Fatalf("client %d: %v", i, err)
			}
			back, err := cl.Decompress(ctx, comp)
			if err != nil {
				log.Fatalf("client %d decompress: %v", i, err)
			}
			if !bytes.Equal(back, data) {
				log.Fatalf("client %d: round trip mismatch", i)
			}
			fmt.Printf("client %d: %6d -> %6d bytes (%.1f%% savings)\n",
				i, len(data), len(comp), 100*(1-float64(len(comp))/float64(len(data))))
		}(i)
	}
	wg.Wait()

	fs := front.StatsSnapshot()
	fmt.Printf("\nfrontend: %d compressed locally, %d outsourced, %d decompressed\n",
		fs["compresses"], fs["outsourced"], fs["decompresses"])
	fmt.Printf("worker:   %d compressed\n", worker.StatsSnapshot()["compresses"])

	// Graceful drain: stop accepting, let in-flight work finish, cancel
	// stragglers only if the deadline passes.
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := front.Shutdown(drainCtx); err != nil {
		log.Fatalf("frontend drain: %v", err)
	}
	if err := worker.Shutdown(drainCtx); err != nil {
		log.Fatalf("worker drain: %v", err)
	}
	fmt.Println("both servers drained cleanly")
}
