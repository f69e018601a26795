// Chunkstore demonstrates the property the Dropbox deployment depends on:
// a JPEG split into fixed-size storage chunks, each chunk compressed and
// decompressible *independently* — even chunks that begin mid-scan, in the
// middle of a Huffman-coded symbol (paper §1, §3.4).
//
// It stores a file into the public lepton.Store — the content-addressed
// store with §5.7 round-trip admission control — backed by the durable
// disk log, then serves individual chunks out of order and proves the
// chunks survive a restart: the store is closed, reopened from the same
// data directory, and the file read back with the replayed segments as
// the only source of the bytes. Everything runs under a context, as a
// real service front end would.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	"lepton"
	"lepton/internal/imagegen"
)

func main() {
	dataDir := flag.String("data-dir", "",
		"directory for the durable chunk store (default: a throwaway temp dir)")
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// A larger synthetic photo so we get several chunks at a 64 KiB chunk
	// size (production uses 4 MiB; the mechanics are identical).
	const chunkSize = 64 << 10
	data, err := imagegen.Generate(7, 1280, 960)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("input: %d bytes (%d chunks of %d KiB)\n",
		len(data), (len(data)+chunkSize-1)/chunkSize, chunkSize>>10)

	// Path 1: the streaming chunk API — chunks are emitted as produced, so
	// the input could just as well be a Reader over a file larger than
	// memory. Cancelling ctx stops the stream between chunks.
	codec := lepton.NewCodec()
	var chunks [][]byte
	err = codec.CompressChunksFromCtx(ctx, bytes.NewReader(data),
		&lepton.ChunkOptions{ChunkSize: chunkSize, Verify: true},
		func(c []byte) error {
			chunks = append(chunks, c)
			return nil
		})
	if err != nil {
		log.Fatal(err)
	}
	var stored int
	for _, c := range chunks {
		stored += len(c)
	}
	fmt.Printf("compressed to %d bytes (%.2f%% savings)\n",
		stored, 100*(1-float64(stored)/float64(len(data))))

	// Decompress chunks in random order, each fully independently: no
	// shared state, no other chunk's bytes.
	for _, k := range rand.New(rand.NewSource(1)).Perm(len(chunks)) {
		part, err := codec.DecompressCtx(ctx, chunks[k])
		if err != nil {
			log.Fatalf("chunk %d: %v", k, err)
		}
		o0 := k * chunkSize
		o1 := min(o0+chunkSize, len(data))
		if !bytes.Equal(part, data[o0:o1]) {
			log.Fatalf("chunk %d mismatch", k)
		}
		fmt.Printf("  chunk %2d decoded independently: %6d bytes OK\n", k, len(part))
	}

	// Path 2: the public store with §5.7 safety mechanisms (admission
	// round trip, checksums, deflate fallback, safety net), persisted to
	// an append-only segment log on disk.
	dir := *dataDir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "lepton-chunkstore")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(dir)
	}
	st, err := lepton.NewDiskStore(dir, &lepton.StoreOptions{
		ChunkSize: chunkSize,
		SafetyNet: lepton.NewMemSafetyNet(),
		Codec:     codec,
	})
	if err != nil {
		log.Fatal(err)
	}
	ref, err := st.PutFile(ctx, data)
	if err != nil {
		log.Fatal(err)
	}
	back, err := st.GetFile(ctx, ref)
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		log.Fatal("store round trip mismatch")
	}
	// Disaster recovery: any chunk's raw bytes can come back from the
	// safety net, bypassing the codec entirely.
	if _, err := st.RecoverFromSafetyNet(ref.Chunks[0]); err != nil {
		log.Fatal(err)
	}
	c := st.Counters()
	fmt.Printf("store: %d Lepton chunks, %d deflate chunks, %d bytes in, %d stored\n",
		c.LeptonChunks, c.DeflateChunks, c.BytesIn, c.BytesStored)

	// Restart cycle: close the store (every acknowledged put is already
	// fsynced by the group commit, so this is no kinder than a crash) and
	// reopen the same directory. Replay rebuilds the index from the
	// segment log and the file comes back byte-identical with the disk as
	// the only source.
	if err := st.Close(); err != nil {
		log.Fatal(err)
	}
	st2, err := lepton.NewDiskStore(dir, &lepton.StoreOptions{
		ChunkSize: chunkSize,
		Codec:     codec,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer st2.Close()
	again, err := st2.GetFile(ctx, ref)
	if err != nil {
		log.Fatalf("get after restart: %v", err)
	}
	fmt.Printf("restart from %s: %d chunks replayed, file byte-identical=%v\n",
		dir, st2.Len(), bytes.Equal(again, data))
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
