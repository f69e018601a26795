package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"

	"lepton/internal/baseline"
	"lepton/internal/core"
	"lepton/internal/cpufeat"
	"lepton/internal/diskstore"
	"lepton/internal/imagegen"
)

// The BENCH_<n>.json artifact (ROADMAP "Raw speed"): a machine-readable
// record of the single-node Figure 1/2 hot-path benchmarks plus the disk
// chunk store's put/get/replay paths, checked in per PR so the
// performance trajectory is tracked instead of anecdotal. The corpus and
// codecs match bench_test.go's BenchmarkFigure2Compress /
// BenchmarkFigure1Decompress, so `go test -bench` output and artifacts
// stay comparable.

type benchRecord struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"b_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// PeakCoeffB is the process-wide high-water mark of streamed
	// coefficient row-window bytes (the §5.1 memory ceiling) observed up
	// to the end of this benchmark.
	PeakCoeffB int64 `json:"peak_coeff_b"`
}

type benchArtifact struct {
	GitSHA     string        `json:"git_sha"`
	GoVersion  string        `json:"go_version"`
	GOARCH     string        `json:"goarch"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	AVX2       bool          `json:"avx2"`
	Benchmarks []benchRecord `json:"benchmarks"`
}

func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	sha := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
		sha += "-dirty"
	}
	return sha
}

// benchCorpus mirrors bench_test.go's loadCorpus: eight deterministic
// images, ~40-400 KiB.
func benchJSONCorpus() [][]byte {
	var corpus [][]byte
	for seed := int64(1); seed <= 8; seed++ {
		data, err := imagegen.Generate(seed, 256+int(seed)*96, 192+int(seed)*72)
		if err != nil {
			panic(err)
		}
		corpus = append(corpus, data)
	}
	return corpus
}

func record(name string, r testing.BenchmarkResult) benchRecord {
	_, peak := core.CoeffMemStats()
	return benchRecord{
		Name:        name,
		NsPerOp:     float64(r.NsPerOp()),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		PeakCoeffB:  peak,
	}
}

// diskBenchmarks measures the durable chunk store's three hot paths:
// the acknowledged put (append plus the group commit's fsync), the
// indexed read with its CRC re-check, and the crash-recovery replay that
// rebuilds the index from the segment log on open. 64 KiB chunks — the
// example deployments' size; the put/get cost is dominated by fsync and
// CRC, not chunk size.
func diskBenchmarks() []benchRecord {
	const (
		chunkSize = 64 << 10
		chunkN    = 256 // replay log: 256 x 64 KiB = 16 MiB
	)
	payload := make([]byte, chunkSize)
	rand.New(rand.NewSource(42)).Read(payload)
	// The store keys on the caller-supplied content hash and never
	// recomputes it, so counter-derived hashes keep hashing cost out of
	// the measurement.
	hashAt := func(i int) (h diskstore.Hash) {
		binary.LittleEndian.PutUint64(h[:], uint64(i))
		return h
	}
	mustOpen := func(dir string, opt diskstore.Options) *diskstore.Store {
		s, err := diskstore.Open(dir, opt)
		if err != nil {
			panic(err)
		}
		return s
	}
	scratch := func() string {
		dir, err := os.MkdirTemp("", "leptonbench-disk")
		if err != nil {
			panic(err)
		}
		return dir
	}
	var recs []benchRecord

	// Put: every op appends a fresh record and blocks until an fsync
	// covers it (SyncInterval 0) — the cost of an acknowledged durable
	// write, one committer deep.
	putDir := scratch()
	defer os.RemoveAll(putDir)
	ps := mustOpen(putDir, diskstore.Options{CompactInterval: -1})
	var putSeq int
	put := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			putSeq++
			if err := ps.Put(hashAt(putSeq), payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	_ = ps.Close()
	recs = append(recs, record("DiskStorePut/64KiB", put))

	// Get: random-ish indexed reads over a warm store, each re-verifying
	// the record CRC.
	getDir := scratch()
	defer os.RemoveAll(getDir)
	gs := mustOpen(getDir, diskstore.Options{SyncInterval: -1, CompactInterval: -1})
	for i := 1; i <= chunkN; i++ {
		if err := gs.Put(hashAt(i), payload); err != nil {
			panic(err)
		}
	}
	get := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			data, ok, err := gs.Get(hashAt(i%chunkN + 1))
			if err != nil || !ok || len(data) != chunkSize {
				b.Fatalf("get: ok=%v err=%v", ok, err)
			}
		}
	})
	_ = gs.Close()
	recs = append(recs, record("DiskStoreGet/64KiB", get))

	// Replay: open over a populated log — the warm-restart cost of
	// rebuilding the in-memory index (and CRC-checking every record).
	replayDir := scratch()
	defer os.RemoveAll(replayDir)
	rs := mustOpen(replayDir, diskstore.Options{SyncInterval: -1, CompactInterval: -1})
	for i := 1; i <= chunkN; i++ {
		if err := rs.Put(hashAt(i), payload); err != nil {
			panic(err)
		}
	}
	_ = rs.Close()
	replay := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := mustOpen(replayDir, diskstore.Options{SyncInterval: -1, CompactInterval: -1})
			if s.Len() != chunkN {
				b.Fatalf("replayed %d chunks, want %d", s.Len(), chunkN)
			}
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
	recs = append(recs, record("DiskStoreReplayOpen/16MiB", replay))
	return recs
}

// rangeBenchmarks measures range-serving TTFB against the cost it avoids:
// a 1 KiB (and 64 KiB) ranged read of a ~20 MB seek-indexed container
// versus decompressing the whole file. This is the ROADMAP "range serving"
// claim in artifact form — a small read costs one or two segments, not the
// file.
func rangeBenchmarks() []benchRecord {
	// ~20 MB baseline JPEG: a high-quality, non-subsampled synthetic photo.
	// Encoded at ForceSegments 32 so the seek index has real granularity.
	img := imagegen.Synthesize(9, 10200, 7650)
	jpg, err := imagegen.EncodeJPEG(img, imagegen.Options{Quality: 95, PadBit: 1})
	if err != nil {
		panic(err)
	}
	// A 78-MP image's row windows exceed the default 24-MiB decode budget;
	// raise it for this artifact (the production ceiling is per-file size
	// policy, not a correctness bound).
	const memBudget = 96 << 20
	res, err := oneShotEncode(jpg, core.EncodeOptions{
		ForceSegments: 32, MemDecodeBudget: memBudget, MemEncodeBudget: 512 << 20,
	})
	if err != nil {
		panic(err)
	}
	comp := res.Compressed
	size := int64(len(jpg))
	mb := size >> 20

	var recs []benchRecord
	full := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := oneShotDecode(comp, memBudget); err != nil {
				b.Fatal(err)
			}
		}
	})
	recs = append(recs, record(fmt.Sprintf("FullDecompress/%dMB", mb), full))

	for _, rd := range []struct {
		name string
		n    int64
	}{{"1KiB", 1 << 10}, {"64KiB", 64 << 10}} {
		rd := rd
		rng := rand.New(rand.NewSource(7))
		bm := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				off := rng.Int63n(size - rd.n)
				got, err := oneShotDecodeRange(comp, off, rd.n, memBudget)
				if err != nil || int64(len(got)) != rd.n {
					b.Fatalf("range read: %d bytes, %v", len(got), err)
				}
			}
		})
		recs = append(recs, record(fmt.Sprintf("RangeTTFB/%s@%dMB", rd.name, mb), bm))
	}
	return recs
}

// writeBenchJSON measures the Figure 1/2 codec hot paths and the disk
// store, writing the artifact to path (conventionally BENCH_<pr>.json at
// the repo root).
func writeBenchJSON(path string) {
	corpus := benchJSONCorpus()
	art := benchArtifact{
		GitSHA:     gitSHA(),
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		AVX2:       cpufeat.X86.HasAVX2,
	}
	for _, c := range []baseline.Codec{baseline.LeptonPooled{}, baseline.Lepton{}} {
		c := c
		comp := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, d := range corpus {
					if _, err := c.Compress(d); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		art.Benchmarks = append(art.Benchmarks, record("Figure2Compress/"+c.Name(), comp))

		var comps [][]byte
		for _, d := range corpus {
			cd, err := c.Compress(d)
			if err != nil {
				panic(err)
			}
			comps = append(comps, cd)
		}
		dec := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, cd := range comps {
					if _, err := c.Decompress(cd); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		art.Benchmarks = append(art.Benchmarks, record("Figure1Decompress/"+c.Name(), dec))
	}
	art.Benchmarks = append(art.Benchmarks, diskBenchmarks()...)
	art.Benchmarks = append(art.Benchmarks, rangeBenchmarks()...)
	art.Benchmarks = append(art.Benchmarks, backfillBenchmark())
	out, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		panic(err)
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "leptonbench: bench-json:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d benchmarks, git %s)\n", path, len(art.Benchmarks), art.GitSHA)
}
