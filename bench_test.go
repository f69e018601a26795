// Benchmarks regenerating the paper's codec evaluation, one benchmark (or
// group) per table and figure that runs real code.
// `go test -bench=. -benchmem` prints the series; cmd/leptonbench renders
// the same experiments as full tables with percentile detail.
package lepton_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"lepton"
	"lepton/internal/baseline"
	"lepton/internal/imagegen"
	"lepton/internal/server"
	"lepton/internal/store"
)

// Shared corpus, generated once.
var (
	corpusOnce  sync.Once
	benchCorpus [][]byte // ~40-400 KiB images
	benchBig    []byte   // ~0.5-1 MiB image for thread sweeps
)

func loadCorpus(b *testing.B) {
	b.Helper()
	corpusOnce.Do(func() {
		for seed := int64(1); seed <= 8; seed++ {
			data, err := imagegen.Generate(seed, 256+int(seed)*96, 192+int(seed)*72)
			if err != nil {
				panic(err)
			}
			benchCorpus = append(benchCorpus, data)
		}
		var err error
		benchBig, err = imagegen.Generate(99, 1600, 1200)
		if err != nil {
			panic(err)
		}
	})
}

func corpusBytes() int64 {
	var n int64
	for _, d := range benchCorpus {
		n += int64(len(d))
	}
	return n
}

// --- Figure 1 / Figure 2: savings and speed per codec --------------------

func benchCodecCompress(b *testing.B, c baseline.Codec) {
	loadCorpus(b)
	b.SetBytes(corpusBytes())
	// allocs/op makes the one-shot vs pooled-codec difference visible:
	// compare the "lepton" and "lepton-pooled" rows.
	b.ReportAllocs()
	var out, in int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, in = 0, 0
		for _, data := range benchCorpus {
			comp, err := c.Compress(data)
			if err != nil {
				out += int64(len(data)) // rejected: stored raw
				in += int64(len(data))
				continue
			}
			out += int64(len(comp))
			in += int64(len(data))
		}
	}
	b.ReportMetric(100*(1-float64(out)/float64(in)), "savings%")
}

func benchCodecDecompress(b *testing.B, c baseline.Codec) {
	loadCorpus(b)
	var comps [][]byte
	for _, data := range benchCorpus {
		comp, err := c.Compress(data)
		if err != nil {
			continue
		}
		comps = append(comps, comp)
	}
	b.SetBytes(corpusBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, comp := range comps {
			if _, err := c.Decompress(comp); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func allBenchCodecs() []baseline.Codec {
	return []baseline.Codec{
		baseline.Lepton{},
		baseline.LeptonPooled{},
		baseline.Lepton1Way{},
		baseline.PackJPGStyle{},
		baseline.SpecArith{},
		baseline.Rescan{},
		baseline.Flate{Level: 6},
		baseline.Flate{Level: 9},
		baseline.RC1{},
	}
}

// BenchmarkFigure2Compress reports compression savings and encode speed for
// every codec (Figure 2 top+middle panels; Figure 1's x-axis).
func BenchmarkFigure2Compress(b *testing.B) {
	for _, c := range allBenchCodecs() {
		b.Run(c.Name(), func(b *testing.B) { benchCodecCompress(b, c) })
	}
}

// BenchmarkFigure1Decompress reports decompression speed (Figure 1's
// y-axis; Figure 2 bottom panel).
func BenchmarkFigure1Decompress(b *testing.B) {
	for _, c := range allBenchCodecs() {
		b.Run(c.Name(), func(b *testing.B) { benchCodecDecompress(b, c) })
	}
}

// --- Figure 3: memory (use -benchmem: B/op is the allocation budget) -----

// BenchmarkFigure3Memory isolates one encode+decode per iteration so B/op
// approximates per-conversion allocations (Figure 3's resident-memory
// comparison; see also leptonbench -fig 3 for heap high-water sampling).
func BenchmarkFigure3Memory(b *testing.B) {
	for _, c := range allBenchCodecs() {
		b.Run(c.Name(), func(b *testing.B) {
			loadCorpus(b)
			data := benchCorpus[len(benchCorpus)-1]
			comp, err := c.Compress(data)
			if err != nil {
				b.Skip("codec rejects corpus file")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Compress(data); err != nil {
					b.Fatal(err)
				}
				if _, err := c.Decompress(comp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 4: compression breakdown by component ------------------------

// BenchmarkFigure4Breakdown runs stat-collecting encodes and reports the
// component ratios (header/7x7/edge/DC shares are printed by leptonbench).
func BenchmarkFigure4Breakdown(b *testing.B) {
	loadCorpus(b)
	b.SetBytes(corpusBytes())
	var total, compressed int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total, compressed = 0, 0
		for _, data := range benchCorpus {
			res, err := lepton.Compress(data, &lepton.Options{CollectStats: true})
			if err != nil {
				b.Fatal(err)
			}
			total += int64(len(data))
			compressed += int64(len(res.Compressed))
		}
	}
	b.ReportMetric(100*float64(compressed)/float64(total), "ratio%")
}

// --- Figures 6/7/8: size and thread sweeps -------------------------------

// BenchmarkFigure6SavingsBySize reports savings per size bucket.
func BenchmarkFigure6SavingsBySize(b *testing.B) {
	for _, w := range []int{128, 320, 640, 1280} {
		data, err := imagegen.Generate(int64(w), w, w*3/4)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%dKiB", len(data)>>10), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			var comp int
			for i := 0; i < b.N; i++ {
				res, err := lepton.Compress(data, nil)
				if err != nil {
					b.Fatal(err)
				}
				comp = len(res.Compressed)
			}
			b.ReportMetric(100*(1-float64(comp)/float64(len(data))), "savings%")
		})
	}
}

// BenchmarkFigure7DecodeThreads sweeps thread-segment counts on a large
// file (decompression speed vs threads). On a multi-core host throughput
// rises with threads; the segment plumbing is exercised regardless.
func BenchmarkFigure7DecodeThreads(b *testing.B) {
	loadCorpus(b)
	for _, threads := range []int{1, 2, 4, 8} {
		res, err := lepton.Compress(benchBig, &lepton.Options{Threads: threads})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			b.SetBytes(int64(len(benchBig)))
			for i := 0; i < b.N; i++ {
				if _, err := lepton.Decompress(res.Compressed); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure8EncodeThreads sweeps thread counts for compression.
func BenchmarkFigure8EncodeThreads(b *testing.B) {
	loadCorpus(b)
	for _, threads := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			b.SetBytes(int64(len(benchBig)))
			for i := 0; i < b.N; i++ {
				if _, err := lepton.Compress(benchBig, &lepton.Options{Threads: threads}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- §4.3 ablations -------------------------------------------------------

// BenchmarkAblation measures compressed size with each predictor disabled
// (§4.3: edge prediction and DC gradient contributions).
func BenchmarkAblation(b *testing.B) {
	cases := []struct {
		name string
		opt  lepton.Options
	}{
		{"full", lepton.Options{}},
		{"noEdge", lepton.Options{DisableEdgePrediction: true}},
		{"noDCGradient", lepton.Options{DisableDCGradient: true}},
		{"packjpg2007", lepton.Options{DisableEdgePrediction: true, DisableDCGradient: true}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			loadCorpus(b)
			b.SetBytes(corpusBytes())
			var out, in int64
			for i := 0; i < b.N; i++ {
				out, in = 0, 0
				for _, data := range benchCorpus {
					res, err := lepton.Compress(data, &tc.opt)
					if err != nil {
						b.Fatal(err)
					}
					out += int64(len(res.Compressed))
					in += int64(len(data))
				}
			}
			b.ReportMetric(100*(1-float64(out)/float64(in)), "savings%")
		})
	}
}

// --- Chunk layer ----------------------------------------------------------

// BenchmarkChunkedCompress measures the 4-MiB-chunk path (at a reduced
// chunk size so the corpus spans several chunks).
func BenchmarkChunkedCompress(b *testing.B) {
	loadCorpus(b)
	codec := lepton.NewCodec()
	b.SetBytes(int64(len(benchBig)))
	for i := 0; i < b.N; i++ {
		if _, err := codec.CompressChunksCtx(context.Background(), benchBig, &lepton.ChunkOptions{ChunkSize: 64 << 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChunkedDecompressOne measures independent single-chunk decode —
// the user-visible serving operation.
func BenchmarkChunkedDecompressOne(b *testing.B) {
	loadCorpus(b)
	codec := lepton.NewCodec()
	chunks, err := codec.CompressChunksCtx(context.Background(), benchBig, &lepton.ChunkOptions{ChunkSize: 64 << 10})
	if err != nil {
		b.Fatal(err)
	}
	mid := chunks[len(chunks)/2]
	b.SetBytes(64 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.DecompressCtx(context.Background(), mid); err != nil {
			b.Fatal(err)
		}
	}
}

// --- §6.2 error table -----------------------------------------------------

// BenchmarkTableErrorCodes qualifies the anomaly-mix corpus and reports the
// success percentage (§6.2's top line: 94.069%).
func BenchmarkTableErrorCodes(b *testing.B) {
	corpus := imagegen.BuildErrorCorpus(1, 100)
	b.ResetTimer()
	var q *store.QualReport
	for i := 0; i < b.N; i++ {
		q = store.Qualify(corpus)
	}
	b.ReportMetric(100*q.SuccessRatio(), "success%")
}

// --- §5.5: outsourcing socket overhead (real sockets) ----------------------

// BenchmarkOutsourcingSocketOverhead measures compress RPCs over a Unix
// socket vs TCP loopback (the paper's 7.9% remote overhead).
func BenchmarkOutsourcingSocketOverhead(b *testing.B) {
	loadCorpus(b)
	data := benchCorpus[2]
	for _, transport := range []string{"unix", "tcp"} {
		b.Run(transport, func(b *testing.B) {
			bs := &server.Blockserver{}
			var addr string
			var err error
			if transport == "unix" {
				addr, err = server.ListenAndServe("unix:"+b.TempDir()+"/l.sock", bs)
			} else {
				addr, err = server.ListenAndServe("tcp:127.0.0.1:0", bs)
			}
			if err != nil {
				b.Fatal(err)
			}
			defer bs.Close()
			dctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			cl, err := server.DialContext(dctx, addr)
			cancel()
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				_, err := cl.DoCtx(ctx, server.OpCompress, data)
				cancel()
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
