// Command corpusgen generates the synthetic evaluation corpus: procedural
// baseline JPEGs across a range of sizes and encoding parameters, plus the
// §6.2 anomaly classes (progressive, CMYK, non-image, truncated, ...).
//
// With -fuzz-seeds it instead regenerates the checked-in seed corpora for
// the fuzz targets (FuzzDecode and FuzzDecompressRange in internal/core,
// FuzzStorePut in internal/store, FuzzSegmentReplay in
// internal/diskstore, FuzzReadRequest and FuzzHandleOp in
// internal/server): valid inputs
// plus corrupted and truncated variants, written in Go's corpus-file
// format under each package's testdata/fuzz/ directory.
//
// With -manifest N it instead emits a deterministic backfill manifest:
// N entries with stable IDs and zipf-mixed sizes in the text format
// cmd/backfill consumes, written to -out (a file path in this mode), or
// stdout when -out is not set.
//
// Usage:
//
//	corpusgen -n 200 -out ./corpus [-seed 1] [-errors]
//	corpusgen -manifest 100000 -out backfill.manifest [-seed 1]
//	corpusgen -fuzz-seeds .     # from the repo root
package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"lepton/internal/backfill"
	"lepton/internal/core"
	"lepton/internal/diskstore"
	"lepton/internal/imagegen"
)

func main() {
	n := flag.Int("n", 100, "number of files")
	out := flag.String("out", "corpus", "output directory")
	seed := flag.Int64("seed", 1, "generator seed")
	withErrors := flag.Bool("errors", false, "use the §6.2 anomaly mix instead of all-valid files")
	minDim := flag.Int("min", 64, "minimum image dimension")
	maxDim := flag.Int("max", 640, "maximum image dimension")
	oversize := flag.Int("oversize", 0,
		"additionally generate this many 2600x2000 4:4:4 images whose whole"+
			" coefficient planes exceed the 24 MiB decode budget — they stream"+
			" through the row-window pipeline (memory-bound testing)")
	fuzzSeeds := flag.String("fuzz-seeds", "",
		"regenerate the checked-in fuzz seed corpora under <dir>/internal/"+
			"{core,store}/testdata/fuzz/ and exit (pass the repo root)")
	manifestN := flag.Int("manifest", 0,
		"emit an N-entry deterministic backfill manifest (zipf-mixed sizes,"+
			" stable IDs) instead of JPEG files; -out becomes the output file"+
			" path (stdout if unset)")
	flag.Parse()

	if *fuzzSeeds != "" {
		writeFuzzSeeds(*fuzzSeeds)
		return
	}
	if *manifestN > 0 {
		writeManifest(*seed, *manifestN, *out, flagWasSet("out"))
		return
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	if *withErrors {
		files := imagegen.BuildErrorCorpus(*seed, *n)
		for i, data := range files {
			write(*out, i, data)
		}
		fmt.Printf("wrote %d files (anomaly mix) to %s\n", len(files), *out)
		return
	}
	rng := rand.New(rand.NewSource(*seed))
	var total int64
	for i := 0; i < *n; i++ {
		w := *minDim + rng.Intn(*maxDim-*minDim+1)
		h := *minDim + rng.Intn(*maxDim-*minDim+1)
		data, err := imagegen.Generate(rng.Int63(), w, h)
		if err != nil {
			fatal(err)
		}
		write(*out, i, data)
		total += int64(len(data))
	}
	for i := 0; i < *oversize; i++ {
		img := imagegen.Synthesize(rng.Int63(), 2600, 2000)
		data, err := imagegen.EncodeJPEG(img, imagegen.Options{Quality: 85, PadBit: 1})
		if err != nil {
			fatal(err)
		}
		write(*out, *n+i, data)
		total += int64(len(data))
	}
	fmt.Printf("wrote %d JPEGs (%.1f MB) to %s\n", *n+*oversize, float64(total)/1e6, *out)
}

func write(dir string, i int, data []byte) {
	name := filepath.Join(dir, fmt.Sprintf("img-%05d.jpg", i))
	if err := os.WriteFile(name, data, 0o644); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "corpusgen:", err)
	os.Exit(1)
}

func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// writeManifest emits the synthetic backfill manifest. The same (seed, n)
// always produces byte-identical output, so a manifest can be regenerated
// instead of shipped.
func writeManifest(seed int64, n int, out string, toFile bool) {
	m := backfill.Synthetic(seed, n)
	if !toFile {
		if err := backfill.WriteManifest(os.Stdout, m); err != nil {
			fatal(err)
		}
		return
	}
	f, err := os.Create(out)
	if err != nil {
		fatal(err)
	}
	if err := backfill.WriteManifest(f, m); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %d-entry manifest (seed %d) to %s\n", n, seed, out)
}

// --- fuzz seed corpora ----------------------------------------------------

// mustEncode compresses one generated JPEG into a container.
func mustEncode(img []byte, err error) []byte {
	if err != nil {
		fatal(err)
	}
	res, err := core.NewCodec().EncodeCtx(context.Background(), img, core.EncodeOptions{})
	if err != nil {
		fatal(err)
	}
	return res.Compressed
}

// withVariants appends a byte-flip corruption and a truncation of every
// sufficiently large seed — the container-grammar head start the fuzzers
// want, mirroring the in-test seed builders.
func withVariants(seeds [][]byte, flipFromEnd int, frac int) [][]byte {
	n := len(seeds)
	for i := 0; i < n; i++ {
		s := seeds[i]
		if len(s) > 64 {
			c := append([]byte(nil), s...)
			c[len(c)-flipFromEnd] ^= 0x5A
			seeds = append(seeds, c, s[:len(s)*frac/(frac+1)])
		}
	}
	return seeds
}

// writeFuzzSeeds regenerates the committed corpora for FuzzDecode
// (internal/core) and FuzzStorePut (internal/store). Deterministic: the
// same binary always writes the same files.
func writeFuzzSeeds(root string) {
	// FuzzDecode: the whole-file decoder's grammar.
	sy := imagegen.Synthesize(3, 120, 88)
	decodeSeeds := [][]byte{
		mustEncode(imagegen.EncodeJPEG(sy, imagegen.Options{Quality: 85, PadBit: 1})),
		mustEncode(imagegen.EncodeJPEG(sy, imagegen.Options{Quality: 85, Grayscale: true, PadBit: 1})),
		mustEncode(imagegen.EncodeJPEG(sy, imagegen.Options{Quality: 75, SubsampleChroma: true, RestartInterval: 3, PadBit: 0})),
		rawContainer("not a jpeg", 10),
	}
	decodeSeeds = withVariants(decodeSeeds, 17, 3)
	writeCorpus(filepath.Join(root, "internal", "core", "testdata", "fuzz", "FuzzDecode"), decodeSeeds)

	// FuzzDecompressRange: the same container grammar paired with range
	// bounds — start-of-file, interior, tail-crossing, and clamped-past-EOF
	// reads over intact, bit-flipped, and truncated containers.
	var rangeSeeds [][]string
	for i, s := range decodeSeeds {
		bounds := [...][2]int64{{0, 1024}, {int64(211*i + 7), 257}, {4096, 1}, {0, 1 << 30}}
		b := bounds[i%len(bounds)]
		rangeSeeds = append(rangeSeeds, []string{bytesArg(s),
			"int64(" + strconv.FormatInt(b[0], 10) + ")", "int64(" + strconv.FormatInt(b[1], 10) + ")"})
	}
	writeArgCorpus(filepath.Join(root, "internal", "core", "testdata", "fuzz", "FuzzDecompressRange"), rangeSeeds)

	// FuzzStorePut: chunk containers through store admission.
	sy2 := imagegen.Synthesize(5, 112, 80)
	storeSeeds := [][]byte{
		mustEncode(imagegen.EncodeJPEG(sy2, imagegen.Options{Quality: 85, PadBit: 1})),
		mustEncode(imagegen.EncodeJPEG(sy2, imagegen.Options{Quality: 75, Grayscale: true, PadBit: 0})),
		mustEncode(imagegen.EncodeJPEG(sy2, imagegen.Options{Quality: 70, SubsampleChroma: true, RestartInterval: 2, PadBit: 1})),
		rawContainer("raw chunk payload", 17),
	}
	storeSeeds = withVariants(storeSeeds, 9, 1)
	writeCorpus(filepath.Join(root, "internal", "store", "testdata", "fuzz", "FuzzStorePut"), storeSeeds)

	// FuzzSegmentReplay: on-disk segment logs through crash-recovery
	// replay. Built by writing through a real store so the seeds track the
	// record format; variants add the bit flips and torn tails replay must
	// absorb.
	segSeeds := [][]byte{
		{},
		segmentBytes(func(s *diskstore.Store) {
			put(s, "lone chunk payload")
		}),
		segmentBytes(func(s *diskstore.Store) {
			put(s, "first chunk")
			put(s, "second chunk with a somewhat longer payload to vary record sizes")
			put(s, "") // zero-length payload is a legal record
		}),
		segmentBytes(func(s *diskstore.Store) {
			h := put(s, "chunk that gets deleted")
			put(s, "chunk that survives")
			if err := s.Delete(h); err != nil {
				fatal(err)
			}
		}),
	}
	segSeeds = withVariants(segSeeds, 7, 2)
	writeCorpus(filepath.Join(root, "internal", "diskstore", "testdata", "fuzz", "FuzzSegmentReplay"), segSeeds)

	// FuzzReadRequest: request frames (op, u32 little-endian length,
	// payload) read with a reuse buffer of the given capacity — complete,
	// empty, truncated in the header and in the payload, followed by the
	// next frame, and declaring more than the 8 MiB limit.
	frame := func(op byte, n uint32, payload string) []byte {
		return append(binary.LittleEndian.AppendUint32([]byte{op}, n), payload...)
	}
	reqSeeds := []struct {
		frame    []byte
		reuseCap int
	}{
		{frame('C', 5, "hello"), 0},
		{frame('D', 5, "hello"), 16},
		{frame('L', 0, ""), 8},
		{frame('c', 3, "abcC\x02\x00\x00\x00xy"), 3},
		{frame('D', 10, "abcd"), 64},
		{[]byte{'C', 1, 0}, 0},
		{frame('C', 8<<20, ""), 0},
		{frame('C', 8<<20+1, "x"), 4},
		{frame('D', 0xFFFFFFFF, ""), 0},
	}
	var reqArgs [][]string
	for _, s := range reqSeeds {
		reqArgs = append(reqArgs, []string{bytesArg(s.frame), "uint16(" + strconv.Itoa(s.reuseCap) + ")"})
	}
	writeArgCorpus(filepath.Join(root, "internal", "server", "testdata", "fuzz", "FuzzReadRequest"), reqArgs)

	// FuzzHandleOp: request streams for a node with an in-memory store —
	// one frame per op, an unknown op, a header over the limit, a
	// truncated body, and a session that stores a chunk and then reads,
	// ranges, lists and decompresses it.
	req := func(op byte, payload []byte) []byte { return frame(op, uint32(len(payload)), string(payload)) }
	jpg, err := imagegen.EncodeJPEG(imagegen.Synthesize(7, 32, 24), imagegen.Options{Quality: 85, PadBit: 1})
	if err != nil {
		fatal(err)
	}
	lep := mustEncode(jpg, nil)
	h := sha256.Sum256(lep)
	rangeBody := binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint64(append([]byte(nil), h[:]...), 100), 64)
	listBody := binary.LittleEndian.AppendUint32(make([]byte, 32), 10)
	var session []byte
	for _, f := range [][]byte{req('U', lep), req('H', h[:]), req('R', rangeBody), req('S', listBody), req('L', nil), req('D', lep)} {
		session = append(session, f...)
	}
	writeCorpus(filepath.Join(root, "internal", "server", "testdata", "fuzz", "FuzzHandleOp"), [][]byte{
		req('C', jpg), req('c', jpg), req('D', lep), req('L', nil),
		req('U', lep), req('H', h[:]), req('S', listBody), req('R', rangeBody),
		req('Z', []byte("x")),
		frame('C', 8<<20+1, "x"),
		frame('D', 100, "short"),
		session,
	})
}

// put stores payload under its content hash and returns the hash.
func put(s *diskstore.Store, payload string) diskstore.Hash {
	h := sha256.Sum256([]byte(payload))
	if err := s.Put(h, []byte(payload)); err != nil {
		fatal(err)
	}
	return h
}

// segmentBytes runs build against a scratch disk store and returns the
// first segment file's raw bytes. Deterministic: record framing depends
// only on the written hashes and payloads.
func segmentBytes(build func(s *diskstore.Store)) []byte {
	dir, err := os.MkdirTemp("", "corpusgen-seg")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)
	s, err := diskstore.Open(dir, diskstore.Options{SyncInterval: -1, CompactInterval: -1})
	if err != nil {
		fatal(err)
	}
	build(s)
	if err := s.Close(); err != nil {
		fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "seg-00000001.log"))
	if err != nil {
		fatal(err)
	}
	return b
}

func rawContainer(payload string, size uint32) []byte {
	c := &core.Container{Mode: core.ModeRaw, Raw: []byte(payload), OutputSize: size}
	b, err := c.Marshal()
	if err != nil {
		fatal(err)
	}
	return b
}

// bytesArg formats one []byte argument of a corpus file.
func bytesArg(b []byte) string { return "[]byte(" + strconv.Quote(string(b)) + ")" }

// writeCorpus writes one corpus file per seed for a fuzz target whose only
// argument is a []byte.
func writeCorpus(dir string, seeds [][]byte) {
	args := make([][]string, len(seeds))
	for i, s := range seeds {
		args[i] = []string{bytesArg(s)}
	}
	writeArgCorpus(dir, args)
}

// writeArgCorpus writes seeds in Go's corpus-file format ("go test fuzz
// v1" plus one line per fuzz argument), replacing the directory so a
// reshaped generation cannot leave stale seed files behind for CI to keep
// replaying.
func writeArgCorpus(dir string, seeds [][]string) {
	if err := os.RemoveAll(dir); err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	for i, args := range seeds {
		body := "go test fuzz v1\n" + strings.Join(args, "\n") + "\n"
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("wrote %d fuzz seeds to %s\n", len(seeds), dir)
}
