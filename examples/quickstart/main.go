// Quickstart: compress a JPEG with Lepton, decompress it, and verify the
// round trip is bit-exact. Run with no arguments to use a generated sample
// image, or pass a path to a baseline JPEG.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"os"

	"lepton"
	"lepton/internal/imagegen"
)

func main() {
	var data []byte
	var err error
	if len(os.Args) > 1 {
		data, err = os.ReadFile(os.Args[1])
	} else {
		// A synthetic 640x480 "photo" from the corpus generator.
		data, err = imagegen.Generate(42, 640, 480)
	}
	if err != nil {
		log.Fatal(err)
	}

	// A reusable codec: anything converting more than one file should hold
	// one so the model tables and planes are pooled across conversions.
	codec := lepton.NewCodec()
	ctx := context.Background()

	// Compress. The zero options are the deployed production configuration:
	// thread count by file size, full prediction model.
	res, err := codec.CompressCtx(ctx, data, nil)
	if err != nil {
		log.Fatalf("compress: %v (reason: %v)", err, lepton.ReasonOf(err))
	}
	fmt.Printf("compressed %d -> %d bytes: %.2f%% savings, %d thread segment(s)\n",
		len(data), len(res.Compressed),
		100*(1-float64(len(res.Compressed))/float64(len(data))), res.Threads)

	// Decompress and verify bit-exactness — the property the whole system
	// is built around.
	back, err := codec.DecompressCtx(ctx, res.Compressed)
	if err != nil {
		log.Fatalf("decompress: %v", err)
	}
	if !bytes.Equal(back, data) {
		log.Fatal("round trip mismatch: this should be impossible")
	}
	fmt.Println("round trip verified: output is byte-identical to the input")

	// Streaming decompression writes output as segments complete, for low
	// time-to-first-byte on the serving path.
	var buf bytes.Buffer
	if err := codec.DecompressToCtx(ctx, &buf, res.Compressed); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("streaming decode produced %d bytes\n", buf.Len())
}
