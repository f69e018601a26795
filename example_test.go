package lepton_test

import (
	"bytes"
	"context"
	"fmt"

	"lepton"
	"lepton/internal/imagegen"
)

// ExampleCompress round-trips a baseline JPEG through the codec.
func ExampleCompress() {
	jpegBytes, _ := imagegen.Generate(1, 160, 120)

	res, err := lepton.Compress(jpegBytes, nil)
	if err != nil {
		fmt.Println("rejected:", lepton.ReasonOf(err))
		return
	}
	orig, _ := lepton.Decompress(res.Compressed)
	fmt.Println("bit-exact:", bytes.Equal(orig, jpegBytes))
	fmt.Println("smaller:", len(res.Compressed) < len(jpegBytes))
	// Output:
	// bit-exact: true
	// smaller: true
}

// ExampleCodec_CompressChunksCtx shows independent chunk decompression.
func ExampleCodec_CompressChunksCtx() {
	jpegBytes, _ := imagegen.Generate(2, 400, 300)
	codec := lepton.NewCodec()
	ctx := context.Background()

	chunks, _ := codec.CompressChunksCtx(ctx, jpegBytes, &lepton.ChunkOptions{ChunkSize: 8 << 10})
	// Any chunk reconstructs its exact byte range with no other chunk's
	// data — even when the boundary falls mid-Huffman-symbol.
	part, _ := codec.DecompressCtx(ctx, chunks[1])
	fmt.Println("chunk 1 matches:", bytes.Equal(part, jpegBytes[8<<10:16<<10]))
	// Output:
	// chunk 1 matches: true
}

// ExampleCodec_DecompressToCtx streams output with low time-to-first-byte.
func ExampleCodec_DecompressToCtx() {
	jpegBytes, _ := imagegen.Generate(3, 160, 120)
	res, _ := lepton.Compress(jpegBytes, &lepton.Options{Threads: 2})

	var buf bytes.Buffer
	_ = lepton.NewCodec().DecompressToCtx(context.Background(), &buf, res.Compressed)
	fmt.Println("streamed bit-exact:", bytes.Equal(buf.Bytes(), jpegBytes))
	// Output:
	// streamed bit-exact: true
}

// ExampleCodec_VerifyCtx is the production admission check.
func ExampleCodec_VerifyCtx() {
	jpegBytes, _ := imagegen.Generate(4, 96, 96)
	codec := lepton.NewCodec()
	ctx := context.Background()
	fmt.Println("admitted:", codec.VerifyCtx(ctx, jpegBytes, nil) == nil)

	progressive := imagegen.MakeProgressive(jpegBytes)
	err := codec.VerifyCtx(ctx, progressive, nil)
	fmt.Println("progressive rejected as:", lepton.ReasonOf(err))
	// Output:
	// admitted: true
	// progressive rejected as: Progressive
}
