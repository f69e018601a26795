// Command lepton is the standalone compression tool: it round-trip
// compresses and decompresses baseline JPEG files, mirroring the production
// binary's roles (compress, decompress, verify) plus chunked operation.
//
// Usage:
//
//	lepton compress  [-threads N] [-verify] <in.jpg>  <out.lep>
//	lepton decompress <in.lep> <out.jpg>
//	lepton verify    <in.jpg>
//	lepton chunk     [-size BYTES] <in.jpg> <outdir>
//	lepton unchunk   <outdir> <out.jpg>
//	lepton info      <in.lep>
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"lepton"
	"lepton/internal/core"
)

// codec is shared across subcommands so multi-file operations (chunking in
// particular) reuse pooled model state.
var codec = lepton.NewCodec()

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	args := os.Args[2:]
	var err error
	switch cmd {
	case "compress":
		err = cmdCompress(args)
	case "decompress":
		err = cmdDecompress(args)
	case "verify":
		err = cmdVerify(args)
	case "chunk":
		err = cmdChunk(args)
	case "unchunk":
		err = cmdUnchunk(args)
	case "info":
		err = cmdInfo(args)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lepton:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: lepton <compress|decompress|verify|chunk|unchunk|info> [flags] ...`)
	os.Exit(2)
}

func cmdCompress(args []string) error {
	fs := flag.NewFlagSet("compress", flag.ExitOnError)
	threads := fs.Int("threads", 0, "thread segments, 1..64 (0 = by size)")
	verify := fs.Bool("verify", true, "verify round trip before writing")
	oneWay := fs.Bool("1way", false, "single-model maximum-compression mode")
	fs.Parse(args)
	if fs.NArg() != 2 {
		return fmt.Errorf("compress: need input and output paths")
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	start := time.Now()
	res, err := codec.CompressCtx(context.Background(), data, &lepton.Options{
		Threads: *threads, Verify: *verify, SingleModel: *oneWay,
	})
	if err != nil {
		return fmt.Errorf("%s (reason: %v)", err, lepton.ReasonOf(err))
	}
	if err := os.WriteFile(fs.Arg(1), res.Compressed, 0o644); err != nil {
		return err
	}
	el := time.Since(start)
	fmt.Printf("%d -> %d bytes (%.2f%% savings), %d threads, %.0f ms, %.1f Mbps\n",
		len(data), len(res.Compressed),
		100*(1-float64(len(res.Compressed))/float64(len(data))),
		res.Threads, float64(el.Milliseconds()),
		float64(len(data))*8/1e6/el.Seconds())
	return nil
}

func cmdDecompress(args []string) error {
	fs := flag.NewFlagSet("decompress", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 2 {
		return fmt.Errorf("decompress: need input and output paths")
	}
	comp, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	start := time.Now()
	// Stream the reconstruction into the output file, segment by segment,
	// instead of buffering it whole.
	n, err := streamToFile(fs.Arg(1), func(w io.Writer) error {
		return codec.DecompressToCtx(context.Background(), w, comp)
	})
	if err != nil {
		return err
	}
	el := time.Since(start)
	fmt.Printf("%d -> %d bytes, %.0f ms, %.1f Mbps\n",
		len(comp), n, float64(el.Milliseconds()),
		float64(n)*8/1e6/el.Seconds())
	return nil
}

// streamToFile streams fill's output into path via a temp file renamed into
// place on success, so a failed decode never truncates or corrupts an
// existing output file. Returns the byte count written.
func streamToFile(path string, fill func(io.Writer) error) (int64, error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".lepton-*")
	if err != nil {
		return 0, err
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	bw := bufio.NewWriter(tmp)
	cw := &countingWriter{w: bw}
	if err := fill(cw); err != nil {
		return 0, err
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		return 0, err
	}
	name := tmp.Name()
	tmp = nil
	if err := os.Chmod(name, 0o644); err != nil {
		os.Remove(name)
		return 0, err
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return 0, err
	}
	return cw.n, nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("verify: need an input path")
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	if err := codec.VerifyCtx(context.Background(), data, nil); err != nil {
		return fmt.Errorf("FAILED: %v (reason: %v)", err, lepton.ReasonOf(err))
	}
	fmt.Println("round trip OK")
	return nil
}

func cmdChunk(args []string) error {
	fs := flag.NewFlagSet("chunk", flag.ExitOnError)
	size := fs.Int("size", lepton.ChunkSize, "chunk size in bytes")
	fs.Parse(args)
	if fs.NArg() != 2 {
		return fmt.Errorf("chunk: need input path and output directory")
	}
	in, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer in.Close()
	st, err := in.Stat()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(fs.Arg(1), 0o755); err != nil {
		return err
	}
	// Stream the input: chunks are written as they are produced, so files
	// larger than the encoder's memory budget flow through in raw mode
	// without ever being held whole.
	total, nChunks := 0, 0
	err = codec.CompressChunksFromCtx(context.Background(), in, &lepton.ChunkOptions{ChunkSize: *size, Verify: true},
		func(c []byte) error {
			name := filepath.Join(fs.Arg(1), fmt.Sprintf("chunk-%04d.lep", nChunks))
			nChunks++
			total += len(c)
			return os.WriteFile(name, c, 0o644)
		})
	if err != nil {
		return err
	}
	fmt.Printf("%d chunks, %d -> %d bytes (%.2f%% savings)\n",
		nChunks, st.Size(), total, 100*(1-float64(total)/float64(st.Size())))
	return nil
}

func cmdUnchunk(args []string) error {
	fs := flag.NewFlagSet("unchunk", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 2 {
		return fmt.Errorf("unchunk: need input directory and output path")
	}
	paths, err := chunkPaths(fs.Arg(0))
	if err != nil {
		return err
	}
	// Read and decode chunk by chunk straight into the output file: peak
	// memory is one chunk, not the whole file.
	n, err := streamToFile(fs.Arg(1), func(w io.Writer) error {
		for _, p := range paths {
			c, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			if err := codec.DecompressToCtx(context.Background(), w, c); err != nil {
				return fmt.Errorf("%s: %w", filepath.Base(p), err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Printf("reassembled %d bytes from %d chunks\n", n, len(paths))
	return nil
}

// chunkPaths returns dir's chunk files in chunk order. The chunk command
// names chunk k "chunk-%04d.lep", which sorts as a string only below 10,000
// chunks, so the order comes from each parsed index. The indices must be
// exactly 0..n-1: a missing chunk or a stray chunk-*.lep name is an error,
// not a silently shorter or reordered file.
func chunkPaths(dir string) ([]string, error) {
	names, err := filepath.Glob(filepath.Join(dir, "chunk-*.lep"))
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no chunks in %s", dir)
	}
	byIndex := make(map[int]string, len(names))
	for _, p := range names {
		base := filepath.Base(p)
		k, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(base, "chunk-"), ".lep"))
		if err != nil || k < 0 || fmt.Sprintf("chunk-%04d.lep", k) != base {
			return nil, fmt.Errorf("unchunk: %s is not a chunk name the chunk command writes", p)
		}
		byIndex[k] = p
	}
	paths := make([]string, len(names))
	for k := range paths {
		p, ok := byIndex[k]
		if !ok {
			return nil, fmt.Errorf("unchunk: chunk %d is missing from %s (%d chunk files present)", k, dir, len(names))
		}
		paths[k] = p
	}
	return paths, nil
}

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("info: need an input path")
	}
	comp, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	if !lepton.IsCompressed(comp) {
		return fmt.Errorf("not a Lepton container")
	}
	c, err := core.Unmarshal(comp)
	if err != nil {
		return err
	}
	fmt.Printf("mode: %c\noutput size: %d\n", c.Mode, c.OutputSize)
	if c.Mode == core.ModeLepton {
		fmt.Printf("jpeg header: %d bytes\ntrailer: %d bytes\nprepend: %d bytes\n",
			len(c.JPEGHeader), len(c.Trailer), len(c.Prepend))
		fmt.Printf("pad bit: %d\nrestart markers: %d\nMCU range: [%d, %d)\n",
			c.PadBit, c.RSTCount, c.MCUStart, c.MCUEnd)
		fmt.Printf("thread segments: %d\n", len(c.Segments))
		for i, s := range c.Segments {
			fmt.Printf("  segment %d: startMCU=%d bitOff=%d rstSeen=%d arith=%d bytes\n",
				i, s.StartMCU, s.Handover.BitOff, s.Handover.RSTSeen, s.ArithLen)
		}
	}
	return nil
}
