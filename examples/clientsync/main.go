// Clientsync demonstrates the paper's §7 future work: running the Lepton
// codec in the client instead of (only) the blockserver. Both deployments
// store the same compressed chunks; the difference is what crosses the
// network. Server-side coding moves raw JPEG bytes; client-side coding
// moves Lepton bytes and saves ~a quarter of upload and download bandwidth.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"time"

	"lepton"
	"lepton/internal/imagegen"
	"lepton/internal/server"
	"lepton/internal/store"
)

func main() {
	st := store.New()
	st.ChunkSize = 64 << 10
	bs := &server.Blockserver{Store: st}
	addr, err := server.ListenAndServe("tcp:127.0.0.1:0", bs)
	if err != nil {
		log.Fatal(err)
	}
	defer bs.Close()
	cl, err := server.Dial(addr, 5*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	photo, err := imagegen.Generate(11, 1024, 768)
	if err != nil {
		log.Fatal(err)
	}
	const chunkSize = 64 << 10
	fmt.Printf("photo: %d bytes\n\n", len(photo))

	// --- Deployment A: server-side codec (the production shape). --------
	var wireA int64
	var hashesA [][]byte
	for off := 0; off < len(photo); off += chunkSize {
		end := min(off+chunkSize, len(photo))
		raw := photo[off:end]
		wireA += int64(len(raw))
		h, err := cl.Do(server.OpPutChunkRaw, raw, 30*time.Second)
		if err != nil {
			log.Fatal(err)
		}
		hashesA = append(hashesA, h)
	}
	var gotA []byte
	for _, h := range hashesA {
		raw, err := cl.Do(server.OpGetChunkRaw, h, 30*time.Second)
		if err != nil {
			log.Fatal(err)
		}
		wireA += int64(len(raw))
		gotA = append(gotA, raw...)
	}
	if !bytes.Equal(gotA, photo) {
		log.Fatal("server-side round trip mismatch")
	}
	fmt.Printf("server-side codec: %d bytes on the wire (upload+download)\n", wireA)

	// --- Deployment B: client-side codec (§7). ---------------------------
	codec := lepton.NewCodec()
	ctx := context.Background()
	chunks, err := codec.CompressChunksCtx(ctx, photo, &lepton.ChunkOptions{ChunkSize: chunkSize, Verify: true})
	if err != nil {
		log.Fatal(err)
	}
	var wireB int64
	var hashesB [][]byte
	for _, cb := range chunks {
		wireB += int64(len(cb))
		h, err := cl.Do(server.OpPutChunkCompressed, cb, 30*time.Second)
		if err != nil {
			log.Fatal(err)
		}
		hashesB = append(hashesB, h)
	}
	var gotB []byte
	for _, h := range hashesB {
		cb, err := cl.Do(server.OpGetChunkCompressed, h, 30*time.Second)
		if err != nil {
			log.Fatal(err)
		}
		wireB += int64(len(cb))
		part, err := codec.DecompressCtx(ctx, cb) // client decodes locally
		if err != nil {
			log.Fatal(err)
		}
		gotB = append(gotB, part...)
	}
	if !bytes.Equal(gotB, photo) {
		log.Fatal("client-side round trip mismatch")
	}
	fmt.Printf("client-side codec: %d bytes on the wire (upload+download)\n", wireB)
	fmt.Printf("\nnetwork bandwidth saved by moving the codec to the client: %.1f%%\n",
		100*(1-float64(wireB)/float64(wireA)))
	fmt.Println("(the paper projects ~23%, its average compression ratio)")
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
